"""Quiver families with specialized closed-form F-polynomials.

Covers two-vertex quivers with r parallel arrows (kr), the cyclic
Gale-Robinson quivers G_{v,r,t} (gr, with dP1 = G_{4,2,1}), and the
(r+1)-cycle family a1r.  For quivers passing the symmetry checks the pair
coefficients collapse to a single scalar sequence s (with companion s'),
and F_n becomes a sum over index sequences weighted by s-values only.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intmat
from .closedform import _sequence_sum
from .errors import BadParameters, ConsistencyError, NotSymmetric
from .laurent import LaurentPolynomial
from .quiver import GeneralizedQuiver, degree_bounds, make_quiver, mutate_b


@dataclass(frozen=True)
class FamilySpec:
    """A family tag with parameters; the mutation sequence is 1..v cyclic."""

    family: str  # 'kr' | 'gr' | 'a1r'
    params: tuple[tuple[str, int], ...]

    @classmethod
    def of(cls, family: str, **params) -> "FamilySpec":
        """A spec from keyword parameters; a value that is not an int is BadParameters."""
        for key, value in params.items():
            if not intmat.is_int(value):
                raise BadParameters(f"parameter {key}={value!r} is not an integer")
        return cls(family, tuple(sorted(params.items())))

    def param(self, name: str) -> int:
        for key, value in self.params:
            if key == name:
                return value
        raise BadParameters(f"family {self.family!r} needs parameter {name!r}")


def canonical_sequence(v: int, n: int) -> tuple[int, ...]:
    """The cyclic sequence 1, 2, ..., v, 1, 2, ... of length n."""
    return tuple(i % v + 1 for i in range(n))


def _family_params(spec: FamilySpec) -> tuple[int, ...]:
    """The family's parameters in order, checked: the one home of these rules."""
    if spec.family in ("kr", "a1r"):
        r = spec.param("r")
        least = 2 if spec.family == "kr" else 1
        if r < least:
            raise BadParameters(f"{spec.family} needs r >= {least}")
        return (r,)
    if spec.family == "gr":
        v, r, t = spec.param("v"), spec.param("r"), spec.param("t")
        if not (1 <= r < v and 1 <= t < v):
            raise BadParameters("gr needs 1 <= r < v and 1 <= t < v")
        if r == t or r == v - t:
            raise BadParameters("gr needs {r, v-r} disjoint from {t, v-t}")
        return v, r, t
    raise BadParameters(f"unknown family {spec.family!r}")


def build_family(spec: FamilySpec) -> GeneralizedQuiver:
    """Construct the family's exchange matrix; raises BadParameters."""
    params = _family_params(spec)
    if spec.family == "gr":
        return build_gale_robinson(*params)
    (r,) = params
    if spec.family == "kr":
        return make_quiver([[0, r], [-r, 0]])
    # a1r: r arrows the long way around the cycle plus one short arrow 1 -> r+1;
    # r = 1 degenerates to the double arrow on two vertices.  Vertex 1 is a
    # source, and the cyclic sequence 1, 2, ... always mutates a source, so
    # every step is green.
    v = r + 1
    arrows = [(i, i + 1) for i in range(1, r + 1)] + [(1, v)]
    return _quiver_from_arrows(v, arrows)


def build_gale_robinson(v: int, r: int, t: int) -> GeneralizedQuiver:
    """The cyclic quiver driving x_n x_{n+v} = x_{n+r} x_{n+v-r} + x_{n+t} x_{n+v-t}.

    Vertex 1 has outgoing arrows to 1+r and v+1-r and incoming arrows from
    1+t and v+1-t (multiplicities add when those collide); the remaining
    entries are filled by the one-step periodicity recursion
    b[i+1][j+1] = b[i][j] + m_i*max(-m_j, 0) - m_j*max(-m_i, 0), which is
    exactly the condition that mutation at vertex 1 followed by the cyclic
    relabeling returns the same quiver.
    """
    v, r, t = _family_params(FamilySpec.of("gr", v=v, r=r, t=t))
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
    quiver = make_quiver(b)
    report = check_symmetric(quiver, prefix_len=0)
    if not (report.reversible and report.cyclic and report.vertex1_balanced):
        raise BadParameters(f"G_{{{v},{r},{t}}} is not a symmetric quiver")
    return quiver


def _quiver_from_arrows(v: int, arrows) -> GeneralizedQuiver:
    """Net arrow counts with 2-cycle cancellation, as an exchange matrix."""
    counts = [[0] * v for _ in range(v)]
    for src, dst in arrows:
        counts[src - 1][dst - 1] += 1
    b = [
        [counts[i][j] - counts[j][i] for j in range(v)]
        for i in range(v)
    ]
    return make_quiver(b)


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
    verified empirically over prefix_len steps and reported as such.
    """
    from .cmatrix import trace

    b, v = q.b, q.v
    reversible = all(
        b[i][j] == -b[v - 1 - i][v - 1 - j] for i in range(v) for j in range(v)
    )
    mutated = mutate_b(b, 0)
    cyclic = all(
        mutated[i % v][j % v] == b[i - 1][j - 1]
        for i in range(1, v + 1)
        for j in range(1, v + 1)
    )
    swap = lambda i: 0 if i == 0 else v - i  # fix vertex 1, swap i <-> v+2-i
    vertex1_balanced = all(
        b[0][j] == b[0][swap(j)] and b[j][0] == b[swap(j)][0] for j in range(1, v)
    )
    green_prefix = 0
    if reversible and cyclic:
        tr = trace(q, canonical_sequence(v, prefix_len))
        green_prefix = sum(1 for color in tr.colors if color == "green")
        if any(color == "red" for color in tr.colors):
            green_prefix = tr.colors.index("red")
    return SymmetryReport(reversible, cyclic, vertex1_balanced, green_prefix, prefix_len)


class SSequence:
    """Memoized scalar sequence s_i (zero for i < 0) with companion s'_i.

    Built either from the vertex-1 row of a symmetric quiver (linear
    recurrence) or from an explicit family rule.  A rule for s_i may read
    only s_j with j < i: the memo is filled in ascending order, so every
    such read is a lookup and no index costs stack depth.
    """

    def __init__(self, s_rule, sp_rule):
        self._s_rule = s_rule
        self._sp_rule = sp_rule
        self._s_memo: list[int] = []

    def s(self, i: int) -> int:
        if i < 0:
            return 0
        memo = self._s_memo
        while len(memo) <= i:
            memo.append(self._s_rule(len(memo), self.s))
        return memo[i]

    def sp(self, i: int) -> int:
        return self._sp_rule(i, self.s)

    @classmethod
    def from_quiver(cls, q: GeneralizedQuiver) -> "SSequence":
        """Recurrence s_i = -s_{i-v} + sum over edges 1->j of s_{i-v+j-1}."""
        v = q.v
        out_edges = [(j, q.b[0][j - 1]) for j in range(2, v + 1) if q.b[0][j - 1] > 0]
        in_edges = [(j, q.b[j - 1][0]) for j in range(2, v + 1) if q.b[j - 1][0] > 0]

        def s_rule(i, s):
            if i == 0:
                return 1
            return -s(i - v) + sum(m * s(i - v + j - 1) for j, m in out_edges)

        def sp_rule(i, s):
            return -s(i - v) + sum(m * s(i - v + j - 1) for j, m in in_edges)

        return cls(s_rule, sp_rule)

    @classmethod
    def kronecker(cls, r: int) -> "SSequence":
        def s_rule(i, s):
            return 1 if i == 0 else r * s(i - 1) - s(i - 2)

        def sp_rule(i, s):
            return -s(i - 2)

        return cls(s_rule, sp_rule)

    @classmethod
    def gale_robinson(cls, v: int, r: int, t: int) -> "SSequence":
        """s_i counts splittings i = a*r + b*(v-r) with a, b >= 0."""

        def s_rule(i, s):
            return sum(1 for a in range(i // r + 1) if (i - a * r) % (v - r) == 0)

        def sp_rule(i, s):
            return s(i - t) + s(i - v + t) - s(i - v)

        return cls(s_rule, sp_rule)

    @classmethod
    def a1r(cls, r: int) -> "SSequence":
        """Ceiling sequence s_i = ceil(i/r); note s_0 = 0 for this family."""

        def s_rule(i, s):
            return -(-i // r)

        def sp_rule(i, s):
            return s(i - 1) - s(i - r - 1)

        return cls(s_rule, sp_rule)


def family_sequence(spec: FamilySpec) -> SSequence:
    """The family's scalar sequence; accepts exactly the specs `build_family` does."""
    params = _family_params(spec)
    rule = {"kr": SSequence.kronecker, "gr": SSequence.gale_robinson, "a1r": SSequence.a1r}
    return rule[spec.family](*params)


def s_values(spec: FamilySpec, indices) -> list[tuple[int, int]]:
    """Pairs (s_i, s'_i) for each index; negative indices give (0, s'_i)."""
    seq = family_sequence(spec)
    return [(seq.s(i), seq.sp(i)) for i in indices]


def _family_sum(ss: SSequence, steps, bound, cap=None) -> LaurentPolynomial:
    """The sequence sum with tail s_c and pair term -s_d + s'_d, d = c - e.

    Every family sum has this shape: the finite formulas below and the
    stabilized limits of `limit_kr` and `limit_gale_robinson`.
    """
    pairs = [-ss.s(d) + ss.sp(d) for d in range(len(steps))]
    return _sequence_sum(steps, ss.s, lambda c, e: pairs[c - e], bound, cap)


def _family_formula(ss: SSequence, v: int, n: int, bound) -> LaurentPolynomial:
    """Shared evaluator: a(i,k) = s_{k-i}, b(i,k) = s'_{k-i}, r_w = prod y_i^{s_{w-i}}.

    In the candidate order c = n - w the steps are the r_w, reversed.
    """
    rvecs = []
    for w in range(1, n + 1):
        rv = tuple(ss.s(w - i) for i in range(1, v + 1))
        if not any(rv):
            raise ConsistencyError(f"family r-monomial at step {w} vanished")
        rvecs.append(rv)
    return _family_sum(ss, rvecs[::-1], bound)


def fpoly_symmetric(q: GeneralizedQuiver, n: int) -> LaurentPolynomial:
    """F_n for a symmetric quiver under the cyclic sequence 1..v,1..

    Refuses to run unless check_symmetric certifies the prefix of length n.
    """
    intmat.check_count(n, "n")
    if n == 0:
        return LaurentPolynomial.one(q.v)
    report = check_symmetric(q, prefix_len=n)
    if not (report.reversible and report.cyclic and report.vertex1_balanced):
        raise NotSymmetric(f"quiver failed symmetry checks: {report}")
    if report.green_prefix < n:
        raise NotSymmetric(
            f"greenness certified only for {report.green_prefix} steps < n={n}"
        )
    bound = degree_bounds(q, canonical_sequence(q.v, n))
    return _family_formula(SSequence.from_quiver(q), q.v, n, bound)


def fpoly_kr(r: int, n: int) -> LaurentPolynomial:
    """F_n for the two-vertex quiver with r parallel arrows, alternating sequence.

    The sum is pruned by the exact y1-degree s_{n-1}.
    """
    (r,) = _family_params(FamilySpec.of("kr", r=r))
    intmat.check_count(n, "n")
    ss = SSequence.kronecker(r)
    bound = (ss.s(n - 1), ss.s(n - 2))
    return _family_formula(ss, 2, n, bound)


def fpoly_gale_robinson(v: int, r: int, t: int, n: int) -> LaurentPolynomial:
    """F_n for G_{v,r,t} under the cyclic sequence, via partition counts."""
    q = build_gale_robinson(v, r, t)
    intmat.check_count(n, "n")
    bound = degree_bounds(q, canonical_sequence(v, n))
    return _family_formula(SSequence.gale_robinson(v, r, t), v, n, bound)
