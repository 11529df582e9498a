import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clusterforge import LaurentPolynomial, exact_divide, parse_monomial
from clusterforge.errors import InexactDivision, ParseError
from clusterforge.laurent import mul_truncated, truncate


def P(nvars, terms):
    return LaurentPolynomial(nvars, terms)


def test_zero_coefficients_dropped():
    p = P(2, {(1, 0): 0, (0, 1): 3})
    assert p.terms == {(0, 1): 3}


def test_arithmetic_basics():
    y1 = LaurentPolynomial.variable(2, 1)
    y2 = LaurentPolynomial.variable(2, 2)
    p = (1 + y1) * (1 + y2)
    assert p == P(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert p - p == LaurentPolynomial.zero(2)
    assert (1 + y1) ** 3 == P(2, {(0, 0): 1, (1, 0): 3, (2, 0): 3, (3, 0): 1})


def test_divide_perfect_square():
    y1 = LaurentPolynomial.variable(1, 1)
    num = P(1, {(0,): 1, (1,): 2, (2,): 1})
    assert exact_divide(num, 1 + y1) == 1 + y1


def test_divide_by_one_is_identity():
    p = P(2, {(0, 0): 5, (3, 2): -7})
    assert exact_divide(p, LaurentPolynomial.one(2)) == p


def test_multiply_then_divide_roundtrip():
    y1 = LaurentPolynomial.variable(2, 1)
    y2 = LaurentPolynomial.variable(2, 2)
    assert exact_divide((1 + y1) * (1 + y2), 1 + y2) == 1 + y1


def test_inexact_division_raises():
    y1 = LaurentPolynomial.variable(1, 1)
    with pytest.raises(InexactDivision):
        exact_divide(1 + y1, P(1, {(1,): 1}) + 2)
    with pytest.raises(InexactDivision):
        exact_divide(P(1, {(1,): 3}), P(1, {(1,): 2}))


def test_laurent_division_with_negative_exponents():
    p = P(2, {(-1, 0): 1, (0, 1): 2})
    q = P(2, {(-1, 0): 1})
    assert exact_divide(p, q) == P(2, {(0, 0): 1, (1, 1): 2})


def test_division_roundtrip_random():
    rng = random.Random(7)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 5)):
                exps = tuple(rng.randint(-2, 3) for _ in range(nvars))
                terms[exps] = rng.randint(-4, 4)
            return LaurentPolynomial(nvars, terms)
        a, b = rand_poly(), rand_poly()
        if not b:
            continue
        assert exact_divide(a * b, b) == a


def test_canonical_text_matches_reference_form():
    f3 = P(2, {(1, 0): 3, (2, 0): 3, (3, 0): 1, (2, 1): 2, (3, 1): 2, (3, 2): 1})
    assert f3.to_text() == "3*y1 + 3*y1^2 + y1^3 + 2*y1^2*y2 + 2*y1^3*y2 + y1^3*y2^2"


def test_text_constant_zero_and_negatives():
    assert LaurentPolynomial.one(2).to_text() == "1"
    assert LaurentPolynomial.zero(2).to_text() == "0"
    assert P(2, {(-1, 2): -3, (0, 0): 1}).to_text() == "1 - 3*y1^-1*y2^2"


def test_sorted_terms_graded_then_lex():
    p = P(2, {(0, 0): 1, (2, 1): 1, (3, 0): 1, (1, 0): 1})
    order = [e for e, _ in p.sorted_terms()]
    assert order == [(0, 0), (1, 0), (3, 0), (2, 1)]


def test_json_terms_are_decimal_strings():
    p = P(1, {(2,): 10 ** 30})
    assert p.to_json_terms() == [{"exponents": [2], "coeff": str(10 ** 30)}]


def test_parse_monomial():
    assert parse_monomial("y1^3*y2", 2) == (3, 1)
    assert parse_monomial("1", 3) == (0, 0, 0)
    assert parse_monomial("y2^-2", 2) == (0, -2)
    with pytest.raises(ParseError):
        parse_monomial("x1", 2)
    with pytest.raises(ParseError):
        parse_monomial("y9", 2)


def test_degree_helpers():
    p = P(2, {(3, 1): 1, (1, 2): 4})
    assert p.degree_vector() == (3, 2)
    assert p.total_degree() == 4
    assert p.min_exponent_vector() == (1, 1)
    assert p.coefficient((1, 2)) == 4
    assert p.is_polynomial()
    assert not P(2, {(-1, 0): 1}).is_polynomial()


@st.composite
def bounded_operands(draw):
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 6)] * nvars)
    coeffs = st.integers(-9, 9) | st.integers(-10 ** 30, 10 ** 30)
    polys = st.dictionaries(exps, coeffs, max_size=12).map(lambda t: P(nvars, t))
    bound = draw(st.tuples(*[st.integers(0, 12)] * nvars))
    return draw(polys), draw(polys), bound


@given(bounded_operands())
def test_mul_truncated_equals_truncated_product(case):
    p, q, bound = case
    expected = truncate(p * q, bound)
    assert mul_truncated(p, q, bound) == expected
    assert mul_truncated(q, p, bound) == expected


def test_truncate_keeps_in_bound_terms():
    p = P(2, {(0, 0): 1, (2, 1): 5, (1, 3): -2, (3, 0): 7})
    assert truncate(p, (2, 2)) == P(2, {(0, 0): 1, (2, 1): 5})
    assert truncate(p, (0, 0)) == LaurentPolynomial.one(2)


def test_mul_truncated_exponent_sign():
    # a single-term operand is a plain shift, exact for any exponents
    m = P(2, {(-1, 2): 3})
    q = P(2, {(1, 0): 1, (2, 0): 1, (0, 1): 4})
    assert mul_truncated(m, q, (0, 3)) == truncate(m * q, (0, 3))
    assert mul_truncated(q, m, (0, 3)) == truncate(m * q, (0, 3))
    # otherwise skipping out-of-bound terms needs nonnegative exponents
    with pytest.raises(ValueError):
        mul_truncated(P(2, {(-1, 0): 1, (1, 0): 1}), q, (3, 3))
