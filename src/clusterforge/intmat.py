"""Small exact integer-matrix helpers.

Matrices are immutable tuples of tuples of Python ints, so all arithmetic
is arbitrary precision and exact: elimination is fraction-free, on integers
only.  Sizes here are small (the vertex count of a quiver, or a step count
for a matrix of r-monomials), so elimination is plain O(n^3), and a product
adds up whole rows: each nonzero entry of the left operand costs one pass
over a row of the right one, and a zero entry costs nothing.
"""

from __future__ import annotations

from operator import mul

from .errors import BadParameters

Matrix = tuple[tuple[int, ...], ...]


def is_int(x) -> bool:
    """True for an int; False for anything else, bool included.  An exact int
    is tested first, as it is the common case."""
    return type(x) is int or isinstance(x, int) and not isinstance(x, bool)


def check_count(x, name: str) -> int:
    """x itself when it is a nonnegative int; anything else is BadParameters."""
    if not is_int(x):
        raise BadParameters(f"{name} {x!r} is not an integer")
    if x < 0:
        raise BadParameters(f"{name} must be nonnegative")
    return x


def exact_int(x) -> int:
    """x itself when it is an int; anything else, bool included, is a TypeError."""
    if not is_int(x):
        raise TypeError(f"entry {x!r} is not an integer")
    return x


def freeze(rows) -> Matrix:
    return tuple(tuple(exact_int(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product a*b: row i is the sum of x * b[t] over the nonzero x = a[i][t].

    A zero row of a is a zero row as wide as b; an empty a gives the empty
    product, whatever b is.  A b with no rows is 0x0, so an n x 0 a gives
    n rows of width 0.

    >>> mat_mul(((1, 2), (0, -1)), ((3, 0, 1), (1, 1, 0)))
    ((5, 2, 1), (-1, -1, 0))
    >>> mat_mul(((0, 0),), ((1, 2), (3, 4)))
    ((0, 0),)
    >>> mat_mul((), ())
    ()
    >>> mat_mul(((), ()), ())
    ((), ())
    """
    out, width = [], len(b[0]) if b else 0
    for row in a:
        acc = None
        for x, r in zip(row, b):
            if x:
                acc = [x * y for y in r] if acc is None else [s + x * y for s, y in zip(acc, r)]
        out.append((0,) * width if acc is None else tuple(acc))
    return tuple(out)


def mat_vec(a: Matrix, v) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in a)


def det(a: Matrix) -> int:
    """Exact determinant by Bareiss's fraction-free elimination, on integers only.

    Bareiss (Math. Comp. 22, 1968): each entry below row k is then a minor of
    the matrix, so every division by the previous pivot is exact.
    """
    n = len(a)
    m = [list(row) for row in a]
    sign = prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            pivot = next((r for r in range(k + 1, n) if m[r][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top, lead = m[k], m[k][k]
        for row in m[k + 1:]:
            for j in range(k + 1, n):  # row[k] is not written in this loop
                row[j] = (lead * row[j] - row[k] * top[j]) // prev
        prev = lead
    return sign * m[-1][-1] if n else 1


def inverse_unimodular(a: Matrix) -> Matrix:
    """Exact inverse of an integer matrix with determinant +-1.

    Fraction-free Gauss-Jordan on [a | I], dividing exactly as in `det`,
    ends with d*I on the left (d = +-det(a)) and d * a^{-1} on the right.
    Raises ValueError when the matrix is not square (a ragged one
    included), singular, or the inverse is not integral (i.e. det is not a
    unit).
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError(f"matrix is not square: rows of lengths {[len(row) for row in a]}")
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        m[k], m[pivot] = m[pivot], m[k]
        top, lead = m[k], m[k][k]
        for i, row in enumerate(m):
            if i != k:
                m[i] = [(lead * y - row[k] * t) // prev for y, t in zip(row, top)]
        prev = lead
    if prev not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(prev * x for x in row[n:]) for row in m)
