"""Step matrices, C/D-matrix products, mutation colors, and pair coefficients.

The C-matrix after n steps is the product A_1*...*A_n of elementary step
matrices, each differing from the identity only in the row of the mutated
vertex; the D-matrix is the analogous product of E-kind matrices.  So
`trace` applies each step as a row or column update, O(v^2) instead of a
generic O(v^3) product: right multiplication by a step matrix changes only
column k, left multiplication only row k.  Each pair coefficient is one
entry of a product of these matrices, so it is one row-column dot product.
Colors are read off the sign of the mutated column of the previous
C-matrix, which sign coherence keeps well-defined.  Every trace is
cross-checked entrywise against the direct frozen-arrow simulation from the
quiver module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import intmat
from .errors import ConsistencyError, IndexOrder, SignCoherenceViolation
from .intmat import Matrix
from .quiver import FramedState, GeneralizedQuiver, mutate_b, mutate_c


def _step_row(b: Matrix, k: int, kind: str, variant: str) -> tuple[int, ...]:
    """Row k of the elementary matrix for a mutation at 0-based vertex k.

    E-kind counts arrows attached to the mutated vertex, A-kind arrows
    attached to the far endpoint; green uses the arrows opposing the frozen
    ones (outgoing), red the incoming ones.  The diagonal entry is -1.
    """
    if kind not in ("a", "e"):
        raise ValueError("kind must be 'a' or 'e'")
    if variant not in ("green", "red"):
        raise ValueError("variant must be 'green' or 'red'")
    sign = 1 if variant == "green" else -1
    if kind == "e":
        row = [max(sign * x, 0) for x in b[k]]
    else:
        row = [max(-sign * r[k], 0) for r in b]
    row[k] = -1
    return tuple(row)


def _step_matrix(row: tuple[int, ...], k: int) -> Matrix:
    """The identity with row k replaced by `row`."""
    n = len(row)
    return tuple(row if i == k else tuple(int(i == j) for j in range(n))
                 for i in range(n))


def _times_step(m: Matrix, row: tuple[int, ...], k: int) -> Matrix:
    """m * S for the step matrix S with row k equal to `row`.

    Column k of m is negated (S[k][k] = -1 is the only nonzero entry of
    column k of S), and every other column j gains m[.][k] * row[j].
    """
    out = []
    for r in m:
        x = r[k]
        if x:
            new = [a + x * s for a, s in zip(r, row)]
            new[k] = -x
            r = tuple(new)
        out.append(r)
    return tuple(out)


def _row_times(row, m: Matrix) -> tuple[int, ...]:
    """The row vector row * m."""
    return tuple(sum([s * x for s, x in zip(row, col)]) for col in zip(*m))


def _step_times(row: tuple[int, ...], k: int, m: Matrix) -> Matrix:
    """S * m for the step matrix S with row k equal to `row`: only row k changes."""
    return m[:k] + (_row_times(row, m),) + m[k + 1:]


@dataclass(frozen=True)
class StepMatrix:
    m: Matrix
    kind: str      # 'a' or 'e'
    variant: str   # 'green' or 'red'
    step: int      # 1-based step index
    vertex: int    # 1-based mutated vertex


def step_matrix(state: FramedState, vertex: int, kind: str, variant: str,
                step: int = 0) -> StepMatrix:
    """Step matrix for mutating `state` at a 1-based vertex."""
    v = state.quiver.v
    if not 1 <= vertex <= v:
        raise ValueError(f"vertex {vertex} out of range 1..{v}")
    k = vertex - 1
    m = _step_matrix(_step_row(state.quiver.b, k, kind, variant), k)
    return StepMatrix(m, kind, variant, step, vertex)


def _column_color(c: Matrix, k: int) -> str:
    col = [row[k] for row in c]
    if all(x >= 0 for x in col) and any(x > 0 for x in col):
        return "green"
    if all(x <= 0 for x in col) and any(x < 0 for x in col):
        return "red"
    raise SignCoherenceViolation(
        f"column {k + 1} is mixed-sign or zero: {col}; this indicates a bug"
    )


@dataclass(frozen=True)
class MutationTrace:
    """Per-step record of a framed mutation sequence.

    Index 0 of the matrix lists is the initial state; entry i corresponds to
    the framed quiver after i mutations.  All fields are immutable, so a
    trace can be queried concurrently.
    """

    quiver: GeneralizedQuiver
    seq: tuple[int, ...]
    b_mats: tuple[Matrix, ...]
    c_mats: tuple[Matrix, ...]
    d_mats: tuple[Matrix, ...]
    cinv_mats: tuple[Matrix, ...]
    dinv_mats: tuple[Matrix, ...]
    colors: tuple[str, ...]
    r_monomials: tuple[tuple[int, ...], ...]
    a_steps: tuple[Matrix, ...] = field(repr=False, default=())
    e_steps: tuple[Matrix, ...] = field(repr=False, default=())
    estar_steps: tuple[Matrix, ...] = field(repr=False, default=())

    @property
    def n(self) -> int:
        return len(self.seq)

    @property
    def v(self) -> int:
        return self.quiver.v

    def vertex(self, i: int) -> int:
        """1-based vertex mutated at step i (1-based)."""
        return self.seq[i - 1]

    def r(self, i: int) -> tuple[int, ...]:
        return self.r_monomials[i - 1]

    def color(self, i: int) -> str:
        return self.colors[i - 1]

    def delta(self, i: int, j: int) -> int:
        """+1 when steps i and j have the same color; step 0 counts red."""
        ci = "red" if i == 0 else self.color(i)
        cj = "red" if j == 0 else self.color(j)
        return 1 if ci == cj else -1


def trace(q: GeneralizedQuiver, seq) -> MutationTrace:
    """Run a mutation sequence, accumulating B, C, D and the r-monomials.

    The C-matrix is accumulated as a product of A-kind step matrices and,
    independently, by the direct frozen-arrow rule; the two must agree
    entrywise, otherwise a ConsistencyError is raised.  Each step is applied
    as a column update (C*A_i, D*E_i) or a row update (A_i*C^{-1},
    E_i*D^{-1}).  A vertex that is not an int, bool included, is a TypeError.
    """
    seq = tuple(seq)
    v = q.v
    for k in seq:
        if not intmat.is_int(k):
            raise TypeError(f"vertex {k!r} is not an integer")
        if not 1 <= k <= v:
            raise ValueError(f"vertex {k} out of range 1..{v}")
    b = q.b
    c = d = cinv = dinv = intmat.identity(v)
    c_sim = intmat.identity(v)
    b_mats, c_mats, d_mats = [b], [c], [d]
    cinv_mats, dinv_mats = [cinv], [dinv]
    colors: list[str] = []
    r_monomials: list[tuple[int, ...]] = []
    a_steps: list[Matrix] = []
    e_steps: list[Matrix] = []
    estar_steps: list[Matrix] = []

    for k in seq:
        kk = k - 1
        color = _column_color(c, kk)
        other = "red" if color == "green" else "green"
        a_row = _step_row(b, kk, "a", color)
        e_row = _step_row(b, kk, "e", color)
        a_steps.append(_step_matrix(a_row, kk))
        e_steps.append(_step_matrix(e_row, kk))
        estar_steps.append(_step_matrix(_step_row(b, kk, "e", other), kk))
        c = _times_step(c, a_row, kk)
        d = _times_step(d, e_row, kk)
        cinv = _step_times(a_row, kk, cinv)
        dinv = _step_times(e_row, kk, dinv)
        c_sim = mutate_c(c_sim, b, kk)
        if c_sim != c:
            raise ConsistencyError(
                f"C-matrix product disagrees with the frozen-arrow simulation "
                f"at step {len(colors) + 1}"
            )
        b = mutate_b(b, kk)
        colors.append(color)
        r_monomials.append(tuple(abs(row[kk]) for row in c))
        b_mats.append(b)
        c_mats.append(c)
        d_mats.append(d)
        cinv_mats.append(cinv)
        dinv_mats.append(dinv)

    return MutationTrace(
        quiver=q,
        seq=seq,
        b_mats=tuple(b_mats),
        c_mats=tuple(c_mats),
        d_mats=tuple(d_mats),
        cinv_mats=tuple(cinv_mats),
        dinv_mats=tuple(dinv_mats),
        colors=tuple(colors),
        r_monomials=tuple(r_monomials),
        a_steps=tuple(a_steps),
        e_steps=tuple(e_steps),
        estar_steps=tuple(estar_steps),
    )


def c_between(tr: MutationTrace, m: int, n: int, kind: str = "c") -> Matrix:
    """The between-step matrix C_m^{-1} C_n (or the D analogue).

    Valid for any 0 <= m, n <= len(trace); n < m is allowed and simply
    produces the inverse of the (n, m) matrix.
    """
    if not 0 <= m <= tr.n or not 0 <= n <= tr.n:
        raise ValueError("indices out of trace range")
    if kind == "c":
        return intmat.mat_mul(tr.cinv_mats[m], tr.c_mats[n])
    if kind == "d":
        return intmat.mat_mul(tr.dinv_mats[m], tr.d_mats[n])
    raise ValueError("kind must be 'c' or 'd'")


def _check_pair(tr: MutationTrace, i: int, j: int) -> None:
    if i > j:
        raise IndexOrder(f"need i <= j, got ({i}, {j})")
    if not 1 <= i or not j <= tr.n:
        raise ValueError("indices out of trace range")


def _dot_column(row, m: Matrix, k: int) -> int:
    """row . (column k of m)."""
    return sum([x * r[k] for x, r in zip(row, m)])


def coeff_a(tr: MutationTrace, i: int, j: int) -> int:
    """Pair coefficient a(i,j) = D_{i,j}^{-1}[v_j, v_i], for 1 <= i <= j.

    D_{i,j}^{-1} = D_j^{-1} D_i, so the entry is one dot product: row v_j of
    D_j^{-1} times column v_i of D_i, O(v).
    """
    _check_pair(tr, i, j)
    row = tr.dinv_mats[j][tr.vertex(j) - 1]
    return _dot_column(row, tr.d_mats[i], tr.vertex(i) - 1)


def coeff_b(tr: MutationTrace, i: int, j: int) -> int:
    """Pair coefficient b(i,j) = (E*_j E_j D_{i,j}^{-1})[v_j, v_i]; 0 when i=j.

    Row v_j of E*_j E_j D_j^{-1} is formed first, O(v^2): E_j is an
    involution, so E_j D_j^{-1} = D_{j-1}^{-1}, and E*_j differs from the
    identity only in row v_j.  The entry is then that row times column v_i
    of D_i, as for coeff_a.
    """
    _check_pair(tr, i, j)
    if i == j:
        return 0
    estar_row = tr.estar_steps[j - 1][tr.vertex(j) - 1]
    row = _row_times(estar_row, tr.dinv_mats[j - 1])
    return _dot_column(row, tr.d_mats[i], tr.vertex(i) - 1)


@dataclass(frozen=True)
class SignCoherenceReport:
    ok: bool
    violations: tuple[str, ...]


def check_sign_coherence(tr: MutationTrace) -> SignCoherenceReport:
    """Verify uniform nonzero column signs and det = +-1 for every C_i."""
    violations = []
    for i, c in enumerate(tr.c_mats):
        for col in range(tr.v):
            entries = [row[col] for row in c]
            if not (all(x >= 0 for x in entries) or all(x <= 0 for x in entries)):
                violations.append(f"C_{i} column {col + 1} is mixed-sign")
            if all(x == 0 for x in entries):
                violations.append(f"C_{i} column {col + 1} is zero")
        if intmat.det(c) not in (1, -1):
            violations.append(f"det C_{i} is not a unit")
    return SignCoherenceReport(not violations, tuple(violations))
