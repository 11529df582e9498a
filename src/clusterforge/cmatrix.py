"""Step matrices, C/D-matrix products, mutation colors, and pair coefficients.

The C-matrix after n steps is the product A_1*...*A_n of elementary step
matrices, each differing from the identity only in the row of the mutated
vertex k, whose nonzeros are the arrows at k.  So `trace` applies a step
in work proportional to them, not O(v^2): right multiplication by a step
matrix changes only the rows with a nonzero in column k, at the step row's
nonzeros, and left multiplication only row k, a sum over the rows the step
row selects.  No step matrix is built or kept; `step_matrix` builds one
for callers that want the matrix itself.  D_i and D_i^{-1} are C_i and
C_i^{-1} conjugated by diag(d), so they equal them on skew-symmetric
quivers.  The trace keeps no D: a reader computes what it needs of one
from C through d where it reads it.  Each pair coefficient is one entry of
a product of these matrices, so it is one row-column dot product.
`verify` checks that each step matrix is an involution on its step row
alone.  Every pair term -a(i,j) + b(i,j) is row v_j of
(E*_j - E_j) D_{j-1}^{-1} times w_i, column v_i of D_i.  That row is
-r_j B_0 by the tropical dualities G_t B_t = B_0 C_t and
D^{-1} G_t^T D C_t = I (Nakanishi and Zelevinsky, "On tropical dualities
in cluster algebras", arXiv:1101.3736), given sign coherence (Gross,
Hacking, Keel and Kontsevich, "Canonical bases for cluster algebras",
JAMS 2018), so the term is r_j . omega_i with omega_i = -B_0 w_i; the
tests check the identity against the definitional row.  This module is
the one home of a trace's sum inputs: `_omega` builds omega_i, which
`pair_term`, the product form and the closed formula's candidates read,
and `_a` the tails a(i, n).  The public readers (`coeff_a`, `coeff_b`,
`pair_term`, the step methods of a trace) check their indices on entry;
the private ones (`_a`, `_omega`, `_d_column`) take checked indices, so
the closed formula's candidates read `_a` with no check per candidate.
Colors are read off the sign of the mutated column of the previous
C-matrix, which sign coherence keeps well-defined.  Every step of a trace
is cross-checked entrywise against the direct frozen-arrow rule from the
quiver module, applied to the verified C_{i-1}.

Everything a step takes from B_{i-1}, its vertex and its color alone (the
nonzeros of its A-kind step row, the frozen rule's add-vectors and B_i) is
built once per distinct triple, in a memo keyed by B_{i-1} itself.  A
period that returns the quiver thus derives its steps in its first pass
only; every step still reads its color, updates C and C^{-1}, applies the
frozen rule to C_{i-1}, and compares the rule's C_i with the product's,
which share every row the step leaves alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul

from . import intmat
from .errors import ConsistencyError, IndexOrder, SignCoherenceViolation
from .intmat import Matrix
from .quiver import (GeneralizedQuiver, _add_to_rows, _check_symmetrizer, _check_vertex,
                     _frozen_vectors, mutate_b)


def _step_rows(b: Matrix, k: int, sign: int) -> tuple[list[int], list[int]]:
    """Row k of the A-kind and E-kind step matrices, in one pass.

    The mutation at 0-based vertex k is green for sign 1, red for sign -1.
    E-kind counts arrows attached to the mutated vertex, A-kind arrows
    attached to the far endpoint; green uses the arrows opposing the frozen
    ones (outgoing), red the incoming ones.  The diagonal entry is -1.  E*
    is the E-kind of the other color, so E* - E is -sign * b[k]; the pair
    terms read -r_j B_0 in its place, through `_omega`.
    """
    a_row, e_row = [], []
    for r, x in zip(b, b[k]):
        y = -sign * r[k]
        a_row.append(y if y > 0 else 0)
        x *= sign
        e_row.append(x if x > 0 else 0)
    a_row[k] = e_row[k] = -1
    return a_row, e_row


def _nonzeros(row) -> list[tuple[int, int]]:
    """The pairs (j, row[j]) with row[j] != 0."""
    return [(j, s) for j, s in enumerate(row) if s]


def _times_step(m: Matrix, nonzero, k: int) -> Matrix:
    """m * S for the step matrix S whose row k has the nonzeros `nonzero`,
    as (j, S[k][j]) pairs.

    S[k][k] is the only nonzero entry of column k of S, so column k of m
    becomes m[.][k] * S[k][k], and every other column j gains
    m[.][k] * S[k][j]: only the rows of m with a nonzero in column k change,
    at those j.
    """
    out = []
    for r in m:
        x = r[k]
        if x:
            new = list(r)
            new[k] = 0
            for j, s in nonzero:
                new[j] += x * s
            r = tuple(new)
        out.append(r)
    return tuple(out)


def _row_times(nonzero, m: Matrix) -> tuple[int, ...]:
    """The row vector with the nonzeros `nonzero`, (i, s) pairs, times m:
    a sum over only the rows of m it selects."""
    acc = [0] * len(m)
    for i, s in nonzero:
        acc = [a + s * x for a, x in zip(acc, m[i])]
    return tuple(acc)


def _step_times(nonzero, k: int, m: Matrix) -> Matrix:
    """S * m for the step matrix S whose row k has the nonzeros `nonzero`:
    only row k changes."""
    return m[:k] + (_row_times(nonzero, m),) + m[k + 1:]


def step_matrix(b: Matrix, vertex: int, kind: str, variant: str) -> Matrix:
    """Step matrix for mutating exchange matrix b at a 1-based vertex.

    It is the identity with row k = vertex - 1 replaced by its `_step_rows` row.
    """
    v = len(b)
    _check_vertex(vertex, v)
    if kind not in ("a", "e"):
        raise ValueError("kind must be 'a' or 'e'")
    if variant not in ("green", "red"):
        raise ValueError("variant must be 'green' or 'red'")
    k = vertex - 1
    row = tuple(_step_rows(b, k, 1 if variant == "green" else -1)[kind == "e"])
    return tuple(row if i == k else tuple(int(i == j) for j in range(v)) for i in range(v))


def _conjugate(m: Matrix, d) -> Matrix:
    """diag(d)^{-1} m diag(d), as E_i = diag(d)^{-1} A_i diag(d)."""
    return tuple(tuple(x * dj // di for x, dj in zip(row, d)) for row, di in zip(m, d))


def _column_color(col: list[int], k: int) -> str:
    low, high = min(col), max(col)
    if low >= 0 and high > 0:
        return "green"
    if high <= 0 and low < 0:
        return "red"
    raise SignCoherenceViolation(
        f"column {k + 1} is mixed-sign or zero: {col}; this indicates a bug"
    )


@dataclass(frozen=True)
class MutationTrace:
    """Per-step record of a framed mutation sequence.

    Index 0 of the matrix lists is the initial state; entry i corresponds to
    the framed quiver after i mutations.  All fields are immutable, and so
    is the cached tuple of degree bounds.  The closed formula's plan of F_n,
    its packed candidates with their factors, is built whole once per n, on
    first use, and never written after; each is a function of the fields
    alone: a race builds one twice, never a wrong one, so a trace can be
    queried concurrently.  Step j's pair row is -r_j B_0, so a pair term is
    r_j . omega_i (`_omega`), off the r-monomial and the initial B, and the
    trace keeps no pair row.
    Nor does it keep a D-matrix: D_i is C_i conjugated by diag(d), so a reader
    computes the column or entry it needs from C_i and the quiver's d.
    """

    quiver: GeneralizedQuiver
    seq: tuple[int, ...]
    b_mats: tuple[Matrix, ...]
    c_mats: tuple[Matrix, ...]
    cinv_mats: tuple[Matrix, ...]
    colors: tuple[str, ...]
    r_monomials: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.seq)

    @property
    def v(self) -> int:
        return self.quiver.v

    def vertex(self, i: int) -> int:
        """1-based vertex mutated at step i (1-based)."""
        _check_step(self, i, 1, "i")
        return self.seq[i - 1]

    def r(self, i: int) -> tuple[int, ...]:
        """r-monomial of step i (1-based)."""
        _check_step(self, i, 1, "i")
        return self.r_monomials[i - 1]

    def color(self, i: int) -> str:
        """Color of step i (1-based), "green" or "red"."""
        _check_step(self, i, 1, "i")
        return self.colors[i - 1]

    def degree_bound(self, n: int) -> tuple[int, ...]:
        """Componentwise exponent bound for F_n, via the recurrence in max-plus.

        Products become vector sums, sums componentwise maxima, and the exact
        division a vector subtraction.  Because F-polynomials have positive
        coefficients the result is the true componentwise degree vector.
        The first call walks the whole trace once for every F_i's bound;
        every later call, for any n, reads that tuple.

        >>> from clusterforge.quiver import make_quiver
        >>> trace(make_quiver([[0, 2], [-2, 0]]), (1, 2, 1)).degree_bound(3)
        (3, 2)
        """
        _check_step(self, n)
        return self._degree_bounds[n]

    @cached_property
    def _degree_bounds(self) -> tuple[tuple[int, ...], ...]:
        """F_i's degree bound for i in 0..n; an immutable value, so a race only
        computes it twice.  `dataclasses.replace` starts a new trace without it."""
        v = self.v
        labels = [(0,) * v] * v  # the bound of each vertex's current label
        out = [(0,) * v]
        for k, b_row, color, r in zip(self.seq, self.b_mats, self.colors, self.r_monomials):
            # the r-monomial (frozen y-variables) joins S_in at a green step, S_out at a red one
            deg_in, deg_out = (r, (0,) * v) if color == "green" else ((0,) * v, r)
            for j, b in enumerate(b_row[k - 1]):
                if b > 0:
                    deg_out = [x + b * y for x, y in zip(deg_out, labels[j])]
                elif b < 0:
                    deg_in = [x - b * y for x, y in zip(deg_in, labels[j])]
            labels[k - 1] = tuple(max(a, b) - c for a, b, c in zip(deg_in, deg_out, labels[k - 1]))
            out.append(labels[k - 1])
        return tuple(out)

    @cached_property
    def _plans(self) -> dict:
        """closedform's plan of F_n by n, each added whole on first use and
        never changed.  It holds data only, the factors already computed and
        no closure over the trace, so a dropped trace is freed by reference
        counting.  `dataclasses.replace` starts a new trace without it."""
        return {}


def trace(q: GeneralizedQuiver, seq) -> MutationTrace:
    """Run a mutation sequence, accumulating B, C, C^{-1} and the r-monomials.

    The C-matrix is accumulated as a product of A-kind step matrices, and
    every step is checked by the direct frozen-arrow rule: the rule applied
    to the verified C_{i-1} must give the product's C_i entrywise, otherwise
    a ConsistencyError names the step.  After each passed check a separately
    simulated C would equal C_{i-1}, so the rule keeps no state of its own.
    The two are derived separately, the product from `_step_rows` and the
    rule from `_frozen_vectors`, and both leave a row with 0 in column v_i
    as the same tuple, so `!=` reads only the rows the step touched.  A step
    is one column update (C*A_i) and one row update (A_i*C^{-1}), in work
    proportional to the nonzeros of its A-kind row.  D_i and D_i^{-1} are
    C_i and C_i^{-1} conjugated by diag(d), so the trace keeps none:
    `_d_column`, `_a` and `c_between` read them off C through d.  The
    pair row of step j, row v_j of (E*_j - E_j) D_{j-1}^{-1}, is -r_j B_0 by
    the tropical dualities (see the module docstring), so `pair_term` reads
    it off r_j and B_0.  A vertex that is not an int, bool included, is a
    TypeError.

    What a step takes from (B_{i-1}, vertex, color) alone is derived once
    per distinct triple: the nonzeros of the A-row, the frozen rule's
    add-vectors, and B_i.  The memo is keyed by B_{i-1} itself, and a hit
    hands back its stored B_i.  Every step, memo hit or not, reads its color
    off C_{i-1}, updates C and C^{-1}, applies the frozen rule to C_{i-1},
    and compares the two C_i entrywise.
    """
    seq = tuple(seq)
    v = q.v
    for k in seq:
        _check_vertex(k, v)
    _check_symmetrizer(q.b, q.d)
    b = q.b
    c = cinv = intmat.identity(v)
    steps = {}  # (B_{i-1}, vertex, color) -> the step's derived parts and B_i
    b_mats, c_mats, cinv_mats = [b], [c], [cinv]
    colors, r_monomials = [], []

    for k in seq:
        kk = k - 1
        col = [row[kk] for row in c]  # C_i's column kk is -col
        color = _column_color(col, kk)
        step = steps.get((b, kk, color))
        if step is None:
            a_row, _ = _step_rows(b, kk, 1 if color == "green" else -1)
            step = steps[b, kk, color] = (_nonzeros(a_row), _frozen_vectors(b, kk),
                                          mutate_b(b, kk))
        a_nonzero, (pos, neg), b = step
        c_rule = _add_to_rows(c, kk, pos, neg)  # the frozen rule on the verified C_{i-1}
        c = _times_step(c, a_nonzero, kk)
        cinv = _step_times(a_nonzero, kk, cinv)
        if c_rule != c:
            raise ConsistencyError(
                f"C-matrix product disagrees with the frozen-arrow simulation "
                f"at step {len(colors) + 1}"
            )
        colors.append(color)
        r_monomials.append(tuple(map(abs, col)))
        b_mats.append(b)
        c_mats.append(c)
        cinv_mats.append(cinv)

    return MutationTrace(q, seq, *map(tuple, (  # the fields in declaration order
        b_mats, c_mats, cinv_mats, colors, r_monomials)))


def c_between(tr: MutationTrace, m: int, n: int, kind: str = "c") -> Matrix:
    """The between-step matrix C_m^{-1} C_n (or the D analogue).

    Valid for any 0 <= m, n <= len(trace); n < m is allowed and simply
    produces the inverse of the (n, m) matrix.  D_m^{-1} D_n is C_m^{-1} C_n
    conjugated by diag(d), so both kinds share one product.
    """
    _check_step(tr, m, name="m")
    _check_step(tr, n)
    if kind not in ("c", "d"):
        raise ValueError("kind must be 'c' or 'd'")
    between = intmat.mat_mul(tr.cinv_mats[m], tr.c_mats[n])
    return between if kind == "c" else _conjugate(between, tr.quiver.d)


def _check_step(tr: MutationTrace, n, first: int = 0, name: str = "n") -> None:
    """A step n that is not an int, bool included, is a TypeError, as a
    vertex is in `trace`; one outside first..tr.n is a ValueError."""
    if not intmat.is_int(n):
        raise TypeError(f"{name} {n!r} is not an integer")
    if not first <= n <= tr.n:
        raise ValueError(f"{name} out of trace range: {n} is not in {first}..{tr.n}")


def _check_pair(tr: MutationTrace, i: int, j: int) -> None:
    _check_step(tr, i, 1, "i")
    _check_step(tr, j, 1, "j")
    if i > j:
        raise IndexOrder(f"need i <= j, got ({i}, {j})")


def _d_column(tr: MutationTrace, i: int) -> list[int]:
    """Column v_i of D_i, C_i[r][k] * d_k // d_r for k = v_i - 1, O(v) (i not validated)."""
    k, d = tr.seq[i - 1] - 1, tr.quiver.d
    return [row[k] * d[k] // dr for row, dr in zip(tr.c_mats[i], d)]


def coeff_a(tr: MutationTrace, i: int, j: int) -> int:
    """Pair coefficient a(i,j) = D_{i,j}^{-1}[v_j, v_i], for 1 <= i <= j.

    The pair is checked here, once; `_a` computes the entry.
    """
    _check_pair(tr, i, j)
    return _a(tr, i, j)


def _a(tr: MutationTrace, i: int, j: int) -> int:
    """a(i, j) for 1 <= i <= j (not validated).

    D_{i,j}^{-1} = D_j^{-1} D_i is C_j^{-1} C_i conjugated by diag(d), so the
    entry is row v_j of C_j^{-1} times column v_i of C_i, times
    d_{v_i} // d_{v_j}: one dot product, O(v), and no D row is built.  It
    is the one home of a(i, j): `coeff_a`, the closed formula's tails
    a(i, n) and the product form's exponents read it.
    """
    k, kj, d = tr.seq[i - 1] - 1, tr.seq[j - 1] - 1, tr.quiver.d
    return sum([x * r[k] for x, r in zip(tr.cinv_mats[j][kj], tr.c_mats[i])]) * d[k] // d[kj]


def _omega(tr: MutationTrace, i: int) -> list[int]:
    """omega_i = -B_0 w_i, w_i = `_d_column(tr, i)` (i not validated).

    The pair term of steps i < j is r_j . omega_i: row v_j of
    (E*_j - E_j) D_{j-1}^{-1} is -r_j B_0 by the tropical dualities G_t B_t
    = B_0 C_t and D^{-1} G_t^T D C_t = I (Nakanishi and Zelevinsky,
    arXiv:1101.3736), which hold given sign coherence (Gross, Hacking, Keel
    and Kontsevich, JAMS 2018); the tests check it against the definitional
    row.  One vector per i serves every later j, O(v^2).
    """
    w = _d_column(tr, i)
    return [-sum(map(mul, row, w)) for row in tr.quiver.b]


def pair_term(tr: MutationTrace, i: int, j: int) -> int:
    """The pair term -a(i,j) + b(i,j), for 1 <= i <= j; -1 when i = j.

    E_j is an involution, so E*_j E_j D_j^{-1} = E*_j D_{j-1}^{-1}, and the
    term is row v_j of (E*_j - E_j) D_{j-1}^{-1}, that is -r_j B_0, times
    column v_i of D_i: r_j . omega_i (`_omega`).
    """
    _check_pair(tr, i, j)
    if i == j:
        return -1
    return sum(map(mul, tr.r_monomials[j - 1], _omega(tr, i)))


def coeff_b(tr: MutationTrace, i: int, j: int) -> int:
    """Pair coefficient b(i,j) = (E*_j E_j D_{i,j}^{-1})[v_j, v_i]; 0 when i=j.

    It is pair_term + a(i,j), which at i = j is -1 + 1 = 0; `pair_term`
    checks the pair.
    """
    return pair_term(tr, i, j) + _a(tr, i, j)


@dataclass(frozen=True)
class SignCoherenceReport:
    ok: bool
    violations: tuple[str, ...]


def check_sign_coherence(tr: MutationTrace) -> SignCoherenceReport:
    """Verify uniform nonzero column signs and det C_i = (-1)^i for every C_i.

    Each A-kind step matrix is the identity outside its row k, with -1 on
    the diagonal, so its determinant is -1.
    """
    violations = []
    for i, c in enumerate(tr.c_mats):
        for col, entries in enumerate(zip(*c), start=1):
            if min(entries) < 0 < max(entries):
                violations.append(f"C_{i} column {col} is mixed-sign")
            if not any(entries):
                violations.append(f"C_{i} column {col} is zero")
        det = intmat.det(c)
        if det != (-1) ** i:
            violations.append(f"det C_{i} is {det}, not {(-1) ** i}")
    return SignCoherenceReport(not violations, tuple(violations))
