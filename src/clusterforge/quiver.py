"""Exchange-matrix quivers, framed mutation, and the F-polynomial recurrence.

Conventions.  The entry b[i][j] of a stored exchange matrix is the signed
number of edges attached to vertex i+1 running from i+1 to j+1 (negative
when they run inward).  For plain quivers this is the usual "positive entry
means arrows i -> j" matrix; the attachment reading only matters in the
skew-symmetrizable case.  The framed block c[i][j] counts arrows from the
frozen companion of vertex i+1 into base vertex j+1, attached to the base
vertex, so the initial framed state has c equal to the identity.

Mutation is an involution on a framed state, so the recurrence skips every
step that undoes the one before it: a step at the previous step's vertex
returns to the state before that step, with no numerator and no division.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import intmat
from .errors import InexactDivision, NotSkewSymmetrizable
from .intmat import Matrix
from .laurent import LaurentPolynomial, exact_divide


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class GeneralizedQuiver:
    """A skew-symmetrizable exchange matrix with its symmetrizer."""

    b: Matrix
    d: tuple[int, ...]

    @property
    def v(self) -> int:
        return len(self.b)

    @property
    def is_skew_symmetric(self) -> bool:
        return self.b == intmat.neg(intmat.transpose(self.b))


def _find_symmetrizer(b: Matrix) -> tuple[int, ...]:
    """Positive integer d with diag(d)*b skew-symmetric, by ratio propagation.

    Weights stay integers: d_j = -d_i b[i][j] / b[j][i] is set in lowest
    terms, and when it needs a denominator the whole component found so far
    is multiplied by it.  Each component is divided by its gcd at the end.
    """
    n = len(b)
    weights = [0] * n  # 0: not reached yet
    for root in range(n):
        if weights[root]:
            continue
        weights[root] = 1
        stack = [root]
        component = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                bij, bji = b[i][j], b[j][i]
                if bij == 0 and bji == 0:
                    continue
                if bij == 0 or bji == 0 or _sign(bij) == _sign(bji):
                    raise NotSkewSymmetrizable(
                        f"entries ({i + 1},{j + 1}) cannot be symmetrized"
                    )
                num, den = -bij * weights[i], bji
                if weights[j]:
                    if weights[j] * den != num:
                        raise NotSkewSymmetrizable("inconsistent ratios around a cycle")
                    continue
                g = gcd(num, den) if den > 0 else -gcd(num, den)
                num, den = num // g, den // g
                if den != 1:
                    for m in component:
                        weights[m] *= den
                weights[j] = num
                stack.append(j)
                component.append(j)
        shrink = gcd(*(weights[i] for i in component))
        for i in component:
            weights[i] //= shrink
    d = tuple(weights)
    _check_symmetrizer(b, d)
    return d


def _check_symmetrizer(b: Matrix, d) -> None:
    n = len(b)
    if len(d) != n or not all(intmat.is_int(x) and x > 0 for x in d):
        raise NotSkewSymmetrizable("the symmetrizer is not a positive int vector of length v")
    for i in range(n):
        for j in range(n):
            if d[i] * b[i][j] != -d[j] * b[j][i]:
                raise NotSkewSymmetrizable("diag(d)*b is not skew-symmetric")


def make_quiver(b, d=None) -> GeneralizedQuiver:
    """Validate an exchange matrix and compute (or check) its symmetrizer."""
    b = intmat.freeze(b)
    n = len(b)
    if any(len(row) != n for row in b):
        raise ValueError("exchange matrix must be square")
    if any(b[i][i] != 0 for i in range(n)):
        raise ValueError("exchange matrix must have zero diagonal")
    if d is not None:
        d = tuple(intmat.exact_int(x) for x in d)
        if len(d) != n or any(x <= 0 for x in d):
            raise ValueError("symmetrizer must be a positive vector of length v")
        _check_symmetrizer(b, d)
    else:
        d = _find_symmetrizer(b)
    return GeneralizedQuiver(b, d)


def _add_to_rows(m: Matrix, k: int, pos, neg) -> Matrix:
    """m with each row r that has x = r[k] != 0 replaced by r + x * (pos if
    x > 0 else neg), then r[k] by -x; every other row is the same tuple.

    pos and neg are add-vectors given by their nonzero (j, p) pairs, none at
    j = k, so a changed row does work in those pairs alone.
    """
    out = []
    for row in m:
        x = row[k]
        if x:
            new = list(row)
            new[k] = -x
            for j, p in (pos if x > 0 else neg):
                new[j] += x * p
            row = tuple(new)
        out.append(row)
    return tuple(out)


def mutate_b(b: Matrix, k: int) -> Matrix:
    """Standard exchange-matrix mutation at 0-based vertex k.

    Row k is negated; a row i with x = b[i][k] != 0 has b[i][k] negated and
    gains x * max(sign(x) b[k][j], 0) in each other column j; every other
    row comes back unchanged, as the same tuple.  The add-vectors are the
    nonzero (j, max(±b[k][j], 0)) pairs of row k.
    """
    bk = b[k]
    out = _add_to_rows(b, k, [(j, x) for j, x in enumerate(bk) if x > 0],
                       [(j, -x) for j, x in enumerate(bk) if x < 0])
    return out[:k] + (tuple(-x for x in bk),) + out[k + 1:]


def _frozen_vectors(b: Matrix, k: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The add-vectors of `mutate_c` at 0-based vertex k, read off b alone, as
    their nonzero (j, p) pairs: p = max(-b[j][k], 0) for a row with
    c[i][k] > 0, max(b[j][k], 0) for one below 0.  b[k][k] = 0, so no pair
    has j = k."""
    col = [r[k] for r in b]
    return ([(j, -x) for j, x in enumerate(col) if x < 0],
            [(j, x) for j, x in enumerate(col) if x > 0])


def mutate_c(c: Matrix, b: Matrix, k: int) -> Matrix:
    """Frozen-arrow block update for a mutation at 0-based vertex k.

    This is the standard rule applied to the frozen rows of the extended
    matrix, written directly on c; it makes no use of sign coherence.  Only
    a row i with x = c[i][k] != 0 changes: c[i][k] is negated and each other
    column j gains x * max(-sign(x) b[j][k], 0), over the nonzero pairs of
    `_frozen_vectors` alone; the rest are the same tuples.
    """
    return _add_to_rows(c, k, *_frozen_vectors(b, k))


@dataclass(frozen=True)
class FramedState:
    """Immutable framed-quiver snapshot: exchange matrix, frozen block, labels."""

    quiver: GeneralizedQuiver
    c: Matrix
    labels: tuple[LaurentPolynomial, ...]


def framed_state(q: GeneralizedQuiver) -> FramedState:
    one = LaurentPolynomial.one(q.v)
    return FramedState(q, intmat.identity(q.v), (one,) * q.v)


def _exchange_side(labels, row, sign: int, frozen: list[int]) -> LaurentPolynomial:
    """The frozen monomial y^frozen times prod_j labels[j]^(sign*row[j]) over
    the j with sign*row[j] > 0."""
    side = LaurentPolynomial.monomial(frozen)
    for label, x in zip(labels, row):
        x *= sign
        if x > 0:
            side = side * label ** x
    return side


def _check_vertex(k, v: int) -> None:
    """A vertex that is not an int, bool included, is a TypeError; one
    outside 1..v is a ValueError."""
    if not intmat.is_int(k):
        raise TypeError(f"vertex {k!r} is not an integer")
    if not 1 <= k <= v:
        raise ValueError(f"vertex {k} out of range 1..{v}")


def mutate(state: FramedState, k: int) -> FramedState:
    """Mutate a framed state at 1-based vertex k; pure, returns a new state.

    The label at k becomes (S1 + S2)/V_k where S1 collects the inward edges
    attached to k and S2 the outward ones.  Each side is one y-monomial, its
    frozen factor prod_i y_i^max(c[i][k], 0) for S1 and prod_i y_i^max(-c[i][k], 0)
    for S2, times its neighbours' label powers, all in polynomial arithmetic;
    a product by 1 is its other operand, so a side whose frozen factor is 1
    starts from its first label power itself, not a copy.  The sum S1 + S2
    is a new polynomial, so no label's terms are touched, and it is divided
    once.  The division is exact by the Laurent
    phenomenon; an InexactDivision here means the implementation is broken.
    A vertex that is not an int, bool included, is a TypeError.
    """
    q = state.quiver
    _check_vertex(k, q.v)
    kk = k - 1
    b, c = q.b, state.c

    col = [row[kk] for row in c]
    s_in = _exchange_side(state.labels, b[kk], -1, [x if x > 0 else 0 for x in col])
    s_out = _exchange_side(state.labels, b[kk], 1, [-x if x < 0 else 0 for x in col])
    try:
        new_label = exact_divide(s_in + s_out, state.labels[kk])
    except InexactDivision as exc:
        raise InexactDivision(
            f"exchange at vertex {k} is not exact; this indicates a bug"
        ) from exc

    labels = list(state.labels)
    labels[kk] = new_label
    new_quiver = GeneralizedQuiver(mutate_b(b, kk), q.d)
    return FramedState(new_quiver, mutate_c(c, b, kk), tuple(labels))


def fpoly_recurrence(q: GeneralizedQuiver, seq) -> list[LaurentPolynomial]:
    """F-polynomials F_1..F_n along a mutation sequence (1-based vertices).

    F_i is the label at the vertex mutated at step i.  Each F_i is validated
    to be a genuine polynomial with positive coefficients and constant term 1.

    Mutation is an involution on a framed state: mu_k mu_k leaves B, C and
    every label as they were.  So a step at the vertex of the step before it
    undoes that step, and its state is the one before that step.  The loop
    keeps the two-state window (before, state) and swaps it on such a step,
    with no `mutate` call: a run such as (3, 3, 3) mutates once, and F_i is
    an earlier state's label, or the initial 1.
    """
    before, state = None, framed_state(q)
    last = None
    out = []
    for step, k in enumerate(seq, start=1):
        if k == last:
            _check_vertex(k, q.v)  # 1.0 or True equals a vertex yet is no vertex
            before, state = state, before
        else:
            before, state = state, mutate(state, k)
        last = k
        f = state.labels[k - 1]
        if not f.is_polynomial():
            raise InexactDivision(f"F_{step} has negative exponents")
        if f.constant_term != 1 or any(c <= 0 for c in f.terms.values()):
            raise InexactDivision(f"F_{step} is not a positive polynomial with unit constant")
        out.append(f)
    return out


def degree_bounds(q: GeneralizedQuiver, seq) -> tuple[int, ...]:
    """Componentwise exponent bound for F_n, the trace's `degree_bound`."""
    from .cmatrix import trace  # deferred: cmatrix imports this module

    tr = trace(q, seq)
    return tr.degree_bound(tr.n)
