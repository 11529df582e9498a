from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterforge.intmat import det, identity, inverse_unimodular, mat_mul
from oracles import mat_mul_entrywise


def fraction_det(a):
    """Reference determinant: Gaussian elimination on Fractions."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
        result *= m[col][col]
    assert result.denominator == 1
    return int(result)


def fraction_inverse(a):
    """Reference inverse: Gauss-Jordan on Fractions, or None when not integral."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col:
                m[r] = [x - m[r][col] * y for x, y in zip(m[r], m[col])]
    if any(x.denominator != 1 for row in m for x in row[n:]):
        return None
    return tuple(tuple(int(x) for x in row[n:]) for row in m)


@st.composite
def square_matrices(draw):
    """Random, unimodular and singular integer matrices from 1x1 to 6x6."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "unimodular", "singular"]))
    if kind == "unimodular":
        # elementary row operations and sign flips keep det = +-1
        m = [list(row) for row in identity(n)]
        for _ in range(draw(st.integers(0, 10))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if i != j:
                c = draw(st.integers(-3, 3))
                m[i] = [x + c * y for x, y in zip(m[i], m[j])]
            elif draw(st.booleans()):
                m[i] = [-x for x in m[i]]
        return tuple(map(tuple, m))
    rows = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if kind == "singular" and n > 1:
        # one row a combination of two others (or a repeat of one)
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        c = draw(st.integers(-2, 2))
        rows[i] = [x + c * y for x, y in zip(rows[j], rows[k])] if i not in (j, k) \
            else [0] * n
    return tuple(map(tuple, rows))


@settings(max_examples=400, deadline=None)
@given(square_matrices())
def test_integer_elimination_matches_fractions(a):
    d = det(a)
    assert d == fraction_det(a)
    expected = fraction_inverse(a)
    if expected is None:
        with pytest.raises(ValueError):
            inverse_unimodular(a)
        assert d not in (1, -1)
    else:
        assert inverse_unimodular(a) == expected
        assert mat_mul(a, expected) == identity(len(a))
        assert d in (1, -1)


def test_integer_elimination_edge_cases():
    assert det(()) == 1
    assert det(((0, 1), (1, 0))) == -1  # needs a row swap
    assert det(((2, 4), (1, 2))) == 0
    assert inverse_unimodular(((0, 1), (1, 0))) == ((0, 1), (1, 0))
    with pytest.raises(ValueError, match="singular"):
        inverse_unimodular(((2, 4), (1, 2)))
    with pytest.raises(ValueError, match="not unimodular"):
        inverse_unimodular(((2, 0), (0, 1)))


# small, negative, and wider than 64 bits
ENTRIES = st.integers(-3, 3) | st.integers(-2**80, 2**80)


@st.composite
def product_operands(draw):
    """a (n x k) and b (k x m), n, k and m in 0..5, some rows all zero.

    A b with no rows carries no width, so k = 0 makes it 0x0.
    """
    n, k = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    m = draw(st.integers(0, 5)) if k else 0

    def matrix(rows, cols):
        return tuple(
            (0,) * cols if draw(st.booleans()) and draw(st.booleans())
            else tuple(draw(st.lists(ENTRIES, min_size=cols, max_size=cols)))
            for _ in range(rows))

    return matrix(n, k), matrix(k, m)


@settings(max_examples=300, deadline=None)
@given(product_operands())
def test_mat_mul_row_sums_match_entrywise_product(case):
    a, b = case
    assert mat_mul(a, b) == mat_mul_entrywise(a, b)


def test_mat_mul_empty_operands():
    # an empty left operand gives the empty product, and an n x 0 one n empty
    # rows; it used to read len(b[0]) and raise IndexError
    assert mat_mul((), ()) == ()
    assert mat_mul(((),), ()) == ((),)
    assert mat_mul(((), (), ()), ()) == ((), (), ())
    assert mat_mul((), ((1, 2),)) == ()
    assert mat_mul(((0, 0),), ((), ())) == ((),)
    assert mat_mul(((1, 0), (0, 0)), ((5, -6), (7, 8))) == ((5, -6), (0, 0))
