"""Small exact integer-matrix helpers.

Matrices are immutable tuples of tuples of Python ints, so all arithmetic
is arbitrary precision.  Sizes here are tiny (the vertex count of a quiver),
so the plain O(n^3) algorithms are the right tool.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = tuple[tuple[int, ...], ...]


def is_int(x) -> bool:
    """True for an int; False for anything else, bool included."""
    return isinstance(x, int) and not isinstance(x, bool)


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
    n, m = len(a), len(b[0])
    k = len(b)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def mat_vec(a: Matrix, v) -> tuple[int, ...]:
    return tuple(sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a)))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x for x in row) for row in a)


def det(a: Matrix) -> int:
    """Exact determinant via fraction-free Gaussian elimination."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    result = Fraction(sign)
    for i in range(n):
        result *= m[i][i]
    if result.denominator != 1:
        raise ArithmeticError("determinant of an integer matrix must be integral")
    return int(result)


def inverse_unimodular(a: Matrix) -> Matrix:
    """Exact inverse of an integer matrix with determinant +-1.

    Raises ValueError when the matrix is singular or the inverse is not
    integral (i.e. det is not a unit).
    """
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    out = []
    for i in range(n):
        row = m[i][n:]
        if any(x.denominator != 1 for x in row):
            raise ValueError("matrix is not unimodular")
        out.append(tuple(int(x) for x in row))
    return tuple(out)
