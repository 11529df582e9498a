"""Quiver families with specialized closed-form F-polynomials.

Covers two-vertex quivers with r parallel arrows (kr), the cyclic
Gale-Robinson quivers G_{v,r,t} (gr, with dP1 = G_{4,2,1}), and the
(r+1)-cycle family a1r.  For quivers passing the symmetry checks the pair
coefficients collapse to a single scalar sequence s (with companion s'),
and F_n becomes a sum over index sequences weighted by s-values only.
An `SSequence` is data, s and s' as {lag: coefficient} plus a closed form
for s where one exists.  Every family F_n runs through `fpoly_symmetric`,
which reads s off the quiver (`SSequence.from_quiver`) and checks each
r-monomial it gives against the certifying trace's; `fpoly_kr` and
`fpoly_gale_robinson` only build their quiver.  `_family_sum` reads every
pair term off the family's exchange matrix B, omega_c = B steps[c], as
the trace's sums do, and checks it against s'_c - s_c.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import mul

from . import intmat
from .closedform import _plan, _sequence_sum
from .cmatrix import trace
from .errors import BadParameters, ConsistencyError, NotSymmetric
from .laurent import LaurentPolynomial
from .quiver import GeneralizedQuiver, make_quiver, mutate_b


@dataclass(frozen=True)
class FamilySpec:
    """A family tag with parameters; the mutation sequence is 1..v cyclic."""

    family: str  # a name in _FAMILIES
    params: tuple[tuple[str, int], ...]

    @classmethod
    def of(cls, family: str, **params) -> "FamilySpec":
        """A spec from keyword parameters; a value that is not an int is BadParameters."""
        for key, value in params.items():
            if not intmat.is_int(value):
                raise BadParameters(f"parameter {key}={value!r} is not an integer")
        return cls(family, tuple(sorted(params.items())))


def canonical_sequence(v: int, n: int) -> tuple[int, ...]:
    """The cyclic sequence 1, 2, ..., v, 1, 2, ... of length n.

    v must be a positive int and n a nonnegative one (BadParameters otherwise).
    """
    if not intmat.is_int(v) or v < 1:
        raise BadParameters(f"v {v!r} is not a positive integer")
    intmat.check_count(n, "n")
    return tuple(i % v + 1 for i in range(n))


def _family_params(spec: FamilySpec) -> tuple[int, ...]:
    """The family's parameters in order, checked: the one home of these rules."""
    if spec.family not in _FAMILIES:
        raise BadParameters(f"unknown family {spec.family!r}")
    names, given = _FAMILIES[spec.family][0], dict(spec.params)
    for key in given:
        if key not in names:
            raise BadParameters(f"family {spec.family!r} takes no parameter {key!r}")
    missing = ", ".join(repr(name) for name in names if name not in given)
    if missing:
        raise BadParameters(f"family {spec.family!r} needs parameter {missing}")
    if spec.family == "dp1":
        return 4, 2, 1
    if spec.family in ("kr", "a1r"):
        r = given["r"]
        least = 2 if spec.family == "kr" else 1
        if r < least:
            raise BadParameters(f"{spec.family} needs r >= {least}")
        return (r,)
    v, r, t = given["v"], given["r"], given["t"]
    if not (1 <= r < v and 1 <= t < v):
        raise BadParameters("gr needs 1 <= r < v and 1 <= t < v")
    if r == t or r == v - t:
        raise BadParameters("gr needs {r, v-r} disjoint from {t, v-t}")
    return v, r, t


def build_family(spec: FamilySpec) -> GeneralizedQuiver:
    """Construct the family's exchange matrix; raises BadParameters."""
    params = _family_params(spec)
    if len(params) == 3:  # gr, and dp1
        return build_gale_robinson(*params)
    (r,) = params
    if spec.family == "kr":
        return make_quiver([[0, r], [-r, 0]])
    # a1r: r arrows the long way around the cycle, i -> i+1, plus one short
    # arrow 1 -> r+1; r = 1 degenerates to the double arrow on two vertices.
    # Vertex 1 is a source, and the cyclic sequence 1, 2, ... always mutates
    # a source, so every step is green.
    b = [[0] * (r + 1) for _ in range(r + 1)]
    for i, j in [(i, i + 1) for i in range(r)] + [(0, r)]:
        b[i][j] += 1
        b[j][i] -= 1
    return make_quiver(b)


def build_gale_robinson(v: int, r: int, t: int) -> GeneralizedQuiver:
    """The cyclic quiver driving x_n x_{n+v} = x_{n+r} x_{n+v-r} + x_{n+t} x_{n+v-t}.

    Its exchange matrix is `_gale_robinson_b`'s, certified symmetric.
    """
    v, r, t = _family_params(FamilySpec.of("gr", v=v, r=r, t=t))
    quiver = make_quiver(_gale_robinson_b(v, r, t))
    if not check_symmetric(quiver, prefix_len=0).ok:
        raise BadParameters(f"G_{{{v},{r},{t}}} is not a symmetric quiver")
    return quiver


def _gale_robinson_b(v: int, r: int, t: int) -> list[list[int]]:
    """The exchange matrix of G_{v,r,t}, for checked parameters.

    Vertex 1 has outgoing arrows to 1+r and v+1-r and incoming arrows from
    1+t and v+1-t (multiplicities add when those collide); the remaining
    entries are filled by the one-step periodicity recursion
    b[i+1][j+1] = b[i][j] + m_i*max(-m_j, 0) - m_j*max(-m_i, 0), which is
    exactly the condition that mutation at vertex 1 followed by the cyclic
    relabeling returns the same quiver.
    """
    m = [0] * (v + 1)  # m[j] = signed arrows 1 -> j, 1-based
    m[1 + r] += 1
    m[v + 1 - r] += 1
    m[1 + t] -= 1
    m[v + 1 - t] -= 1
    b = [[0] * v for _ in range(v)]
    for j in range(2, v + 1):
        b[0][j - 1] = m[j]
        b[j - 1][0] = -m[j]
    for i in range(1, v - 1):
        for j in range(i + 1, v):
            mi, mj = m[i + 1], m[j + 1]
            value = b[i - 1][j - 1] + mi * max(-mj, 0) - mj * max(-mi, 0)
            b[i][j] = value
            b[j][i] = -value
    return b


@dataclass(frozen=True)
class SymmetryReport:
    reversible: bool
    cyclic: bool
    vertex1_balanced: bool
    green_prefix: int
    prefix_len: int

    @property
    def ok(self) -> bool:
        return (self.reversible and self.cyclic and self.vertex1_balanced
                and self.green_prefix >= self.prefix_len)


def check_symmetric(q: GeneralizedQuiver, prefix_len: int = 20) -> SymmetryReport:
    """Check the four symmetric-quiver properties for the cyclic sequence.

    Greenness of the infinite sequence is not decidable here, so it is
    verified empirically over prefix_len steps and reported as such; a
    prefix_len that is not a nonnegative int, bool included, is
    BadParameters.
    """
    intmat.check_count(prefix_len, "prefix_len")
    return _symmetry(q, prefix_len)[0]


def _symmetry(q: GeneralizedQuiver, prefix_len: int):
    """check_symmetric's report, with the trace of the cyclic prefix it ran
    (None when the quiver is not reversible and cyclic, so none was run)."""
    b, v = q.b, q.v
    reversible = all(
        b[i][j] == -b[v - 1 - i][v - 1 - j] for i in range(v) for j in range(v)
    )
    mutated = mutate_b(b, 0) if v else b  # a quiver with no vertex is not cyclic
    cyclic = v > 0 and all(
        mutated[i % v][j % v] == b[i - 1][j - 1]
        for i in range(1, v + 1)
        for j in range(1, v + 1)
    )
    swap = lambda i: 0 if i == 0 else v - i  # fix vertex 1, swap i <-> v+2-i
    vertex1_balanced = all(
        b[0][j] == b[0][swap(j)] and b[j][0] == b[swap(j)][0] for j in range(1, v)
    )
    green_prefix, tr = 0, None
    if reversible and cyclic:
        tr = trace(q, canonical_sequence(v, prefix_len))
        green_prefix = sum(1 for color in tr.colors if color == "green")
        if any(color == "red" for color in tr.colors):
            green_prefix = tr.colors.index("red")
    report = SymmetryReport(reversible, cyclic, vertex1_balanced, green_prefix, prefix_len)
    return report, tr


class SSequence:
    """Memoized scalar sequence s_i with companion s'_i, both given as data.

    `recurrence` and `companion` map lags to coefficients, {lag: c}.  s_i is
    0 for i < 0, rule(i) when the family has a closed form, and otherwise
    s_0 = 1 and the sum of c * s_{i-lag} over `recurrence` for i >= 1; s'_i is
    that sum over `companion`.  The memo fills in ascending order, so no index
    costs stack depth, and a rule may read s below i off the memo.  The
    finite family formulas read `from_quiver`'s recurrence; the limits and
    `s_values` read the family rules, and the tests check Gale-Robinson's
    rule, the splitting count, against its recurrence.  A1r's has no
    recurrence.
    An index that is not an int, bool included, is a TypeError, raised
    before the memo grows.
    """

    def __init__(self, recurrence, companion, rule=None):
        self.recurrence = recurrence
        self.companion = companion
        self._rule = rule or self._by_recurrence
        self._s_memo: list[int] = []

    def s(self, i: int) -> int:
        if type(i) is not int:  # the exact type first: no call on the sums' path
            intmat.exact_int(i)
        if i < 0:
            return 0
        memo = self._s_memo
        while len(memo) <= i:
            memo.append(self._rule(len(memo)))
        return memo[i]

    def sp(self, i: int) -> int:
        if type(i) is not int:
            intmat.exact_int(i)
        return self._shifted(self.companion, i)

    def _by_recurrence(self, i: int) -> int:
        return self._shifted(self.recurrence, i) if i else 1

    def _shifted(self, lags, i: int) -> int:
        return sum(c * self.s(i - lag) for lag, c in lags.items())

    @classmethod
    def from_quiver(cls, q: GeneralizedQuiver) -> "SSequence":
        """{v: -1, v-j+1: m} from vertex 1: s over its m edges 1 -> j, s' over j -> 1."""

        def lags(m):  # m[k] edges 1 -> k+1 (or k+1 -> 1) give lag v - k; m[0] = b[0][0] = 0
            return {q.v: -1, **{q.v - j: mj for j, mj in enumerate(m) if mj > 0}}

        return cls(lags(q.b[0]), lags([row[0] for row in q.b]))

    @classmethod
    def kronecker(cls, r: int) -> "SSequence":
        return cls({1: r, 2: -1}, {2: -1})

    @classmethod
    def gale_robinson(cls, v: int, r: int, t: int) -> "SSequence":
        """s_i counts splittings i = a*r + b*(v-r) with a, b >= 0, so the
        generating function 1/((1-x^r)(1-x^(v-r))) gives the recurrence.

        The splittings with a >= 1 are those of i - r, so the closed form is
        s_i = s_{i-r} + [(v-r) | i], one memo read per entry.
        """

        def lags(a):  # the lags a and v - a add up when v = 2a
            return {**Counter((a, v - a)), v: -1}

        ss = cls(lags(r), lags(t), lambda i: ss.s(i - r) + (i % (v - r) == 0))
        return ss

    @classmethod
    def a1r(cls, r: int) -> "SSequence":
        """Ceiling sequence s_i = ceil(i/r); note s_0 = 0 for this family.

        It is the s that `from_quiver` reads off the A1r quiver, one index
        later: `s_values` reads this closed form, `fpoly_symmetric` the quiver's.
        """
        return cls(None, {1: 1, r + 1: -1}, lambda i: -(-i // r))


# each family's parameter names, in order, and its scalar sequence; dp1 is
# G_{4,2,1} and takes none
_FAMILIES = {
    "kr": (("r",), SSequence.kronecker),
    "gr": (("v", "r", "t"), SSequence.gale_robinson),
    "a1r": (("r",), SSequence.a1r),
    "dp1": ((), SSequence.gale_robinson),
}


def family_sequence(spec: FamilySpec) -> SSequence:
    """The family's scalar sequence; accepts exactly the specs `build_family` does."""
    params = _family_params(spec)
    return _FAMILIES[spec.family][1](*params)


def s_values(spec: FamilySpec, indices) -> list[tuple[int, int]]:
    """Pairs (s_i, s'_i) for each index; negative indices give (0, s'_i).

    An index that is not an int, bool included, is a TypeError (`SSequence.s`).
    """
    seq = family_sequence(spec)
    return [(seq.s(i), seq.sp(i)) for i in indices]


def _family_sum(b, ss: SSequence, steps, bound, cap=None) -> LaurentPolynomial:
    """The sequence sum with tail s_c and pair term p(c - e), p(d) = -s_d + s'_d.

    Every family sum has this shape: the finite formulas below and the
    limits of `limit_kr` and `limit_gale_robinson`, b being the family's
    exchange matrix B.  The kernel adds omega_c . key to candidate c's tail
    s_c, key the sum of the steps e < c taken, and omega_c = B steps[c], so
    pair(c, e) = steps[e]^T B steps[c].  This is the trace's omega_c =
    -B_0 w_c (`closedform`): a finite formula's steps are its trace's
    r-monomials, and on a green step of a skew-symmetric quiver w = -r.  A
    limit's steps are rho = -C_n^{-1} r, and r_e^T B_0 r_c = rho_e^T
    (C_n^T B_0 C_n) rho_c = rho_e^T B_n rho_c, with B_n = B_0 along a period
    that returns B.  A quiver that `check_symmetric` certifies is
    skew-symmetric: it is cyclic, so its symmetrizer d, which mutation
    keeps, also symmetrizes B with d shifted by one vertex.  On a connected
    component the two differ by one factor; the shift permutes the
    components in orbits of some length m, each component one residue
    class mod m, and v shifts return d, so d is invariant under a shift by
    m and constant on each component.

    p(0) is checked to be the kernel's diagonal -1, and each kept candidate
    c >= 1 to give omega_c . steps[0] = p(c) as `_plan` computes its factor,
    before any sum (ConsistencyError otherwise): this checks s against B.
    """
    if ss.sp(0) - ss.s(0) != -1:
        raise ConsistencyError(f"p(0) = {ss.sp(0) - ss.s(0)}, not the diagonal -1")

    def factor(c: int):
        omega = [sum(map(mul, row, steps[c])) for row in b]
        if c and sum(map(mul, omega, steps[0])) != ss.sp(c) - ss.s(c):
            raise ConsistencyError(f"p({c}) = {ss.sp(c) - ss.s(c)} is off the exchange matrix")
        return ss.s(c), omega

    return _sequence_sum(_plan(steps, factor, bound, cap), bound)


def fpoly_symmetric(q: GeneralizedQuiver, n: int) -> LaurentPolynomial:
    """F_n for a symmetric quiver under the cyclic sequence 1..v,1.., by the family sum.

    Every family F_n runs here.  It raises NotSymmetric unless
    check_symmetric certifies the prefix of length n, and reads the degree
    bound off the trace of that same prefix.  Only then is s read off
    vertex 1's arrows (`SSequence.from_quiver`).  The pair coefficients are
    a(i,k) = s_{k-i} and b(i,k) = s'_{k-i}, and the step r_w =
    prod y_i^{s_{w-i}}: each is checked against the trace's r-monomial
    before any sum, and the first step that differs is a ConsistencyError.
    In the candidate order c = n - w the steps are the r_w, reversed.
    """
    intmat.check_count(n, "n")
    report, tr = _symmetry(q, n)
    if not report.ok:
        raise NotSymmetric(f"quiver is not certified symmetric for n={n}: {report}")
    ss = SSequence.from_quiver(q)
    for w, r in enumerate(tr.r_monomials, 1):
        rv = tuple(ss.s(w - i) for i in range(1, q.v + 1))
        if rv != r:
            raise ConsistencyError(f"family r-monomial at step {w} is {rv}, not the trace's {r}")
    return _family_sum(q.b, ss, tr.r_monomials[::-1], tr.degree_bound(n))


def fpoly_kr(r: int, n: int) -> LaurentPolynomial:
    """F_n for the two-vertex quiver with r parallel arrows, alternating sequence."""
    return fpoly_symmetric(build_family(FamilySpec.of("kr", r=r)), n)


def fpoly_gale_robinson(v: int, r: int, t: int, n: int) -> LaurentPolynomial:
    """F_n for G_{v,r,t} under the cyclic sequence, by `fpoly_symmetric`.

    s is read off the quiver, the same recurrence whose closed form, the
    splitting count, `SSequence.gale_robinson` gives.
    """
    return fpoly_symmetric(build_gale_robinson(v, r, t), n)
