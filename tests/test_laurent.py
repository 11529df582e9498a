import random
import re
from collections import Counter
from fractions import Fraction
from operator import add, le, mul, sub

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterforge import (FamilySpec, LaurentPolynomial, build_family, canonical_sequence,
                          exact_divide, fpoly_formula, fpoly_product_form, fpoly_recurrence,
                          laurent, make_quiver, parse_monomial, trace)
from clusterforge.errors import InexactDivision, ParseError
from clusterforge.laurent import (_divide_dense, _divide_packed, _mul_dense, _mul_packed,
                                  _mul_within, _Packing, _span)
from conftest import truncate
from oracles import text_per_term


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


def test_pow_rejects_non_int_powers():
    # a bool or float power is rejected by name, not read as 1 or failed on `&`
    y1 = LaurentPolynomial.variable(2, 1)
    for power in (True, False, 2.0, Fraction(2), "2"):
        with pytest.raises(TypeError, match=re.escape(f"power must be an int, not {power!r}")):
            (1 + y1) ** power
    with pytest.raises(ValueError, match="negative"):
        (1 + y1) ** -1


def test_product_drops_cancelled_terms():
    y1 = LaurentPolynomial.variable(2, 1)
    y2 = LaurentPolynomial.variable(2, 2)
    assert ((y1 + y2) * (y1 - y2)).terms == {(2, 0): 1, (0, 2): -1}


def test_divide_perfect_square():
    y1 = LaurentPolynomial.variable(1, 1)
    num = P(1, {(0,): 1, (1,): 2, (2,): 1})
    assert exact_divide(num, 1 + y1) == 1 + y1


def test_divide_by_one_is_identity():
    p = P(2, {(0, 0): 5, (3, 2): -7})
    assert exact_divide(p, LaurentPolynomial.one(2)) == p


@pytest.mark.parametrize("p", [
    P(2, {(0, 0): 5, (3, 2): -7}), P(2, {(-1, 4): 3}), P(2, {(0, 0): 1}),
    P(0, {(): 1}), P(0, {(): -4}), P(0, {}),
], ids=repr)
def test_product_by_one_is_the_other_operand(p):
    # the one-term 1 shifts nothing: the product equals p and p's terms stay put
    before = dict(p.terms)
    for product in (p * LaurentPolynomial.one(p.nvars), LaurentPolynomial.one(p.nvars) * p,
                    p * 1, 1 * p):
        assert product == p
        assert p.terms == before
        if len(p.terms) > 1:  # the other operand itself, not a copy
            assert product is p


def test_multiply_then_divide_roundtrip():
    y1 = LaurentPolynomial.variable(2, 1)
    y2 = LaurentPolynomial.variable(2, 2)
    assert exact_divide((1 + y1) * (1 + y2), 1 + y2) == 1 + y1


def test_non_integer_terms_rejected():
    # nothing is coerced: 1/2 used to become 0 and an exponent 1.7 became 1
    for terms in ({(0,): Fraction(1, 2)}, {(0,): 2.0}, {(1.7,): 1},
                  {(0,): True}, {(True,): 1}, {(0,): "3"}):
        with pytest.raises(TypeError):
            LaurentPolynomial(1, terms)
    with pytest.raises(TypeError):
        LaurentPolynomial.constant(2, 2.0)
    with pytest.raises(TypeError):
        LaurentPolynomial.monomial((1, 0.5))
    with pytest.raises(TypeError):
        LaurentPolynomial.one(1) * True


def test_variable_counts_and_indices_are_checked():
    # a count or index that is not an int, bool included, is a TypeError, a
    # negative count a ValueError; True used to pass as 1 and -1 as a count
    bad = [(TypeError, lambda: LaurentPolynomial(True, {(1,): 1})),
           (TypeError, lambda: LaurentPolynomial(2.0)),
           (TypeError, lambda: LaurentPolynomial.one(True)),
           (TypeError, lambda: LaurentPolynomial.variable(2, True)),
           (TypeError, lambda: LaurentPolynomial.variable(2, 1.0)),
           (TypeError, lambda: LaurentPolynomial.variable(True, 1)),
           (ValueError, lambda: LaurentPolynomial(-1)),
           (ValueError, lambda: LaurentPolynomial.one(-1)),
           (ValueError, lambda: LaurentPolynomial.variable(-1, 1)),
           (ValueError, lambda: LaurentPolynomial.variable(2, 3))]
    for error, build in bad:
        with pytest.raises(error):
            build()
    assert LaurentPolynomial(0).nvars == LaurentPolynomial.one(0).nvars == 0
    assert LaurentPolynomial.variable(2, 2).terms == {(0, 1): 1}


def test_wrong_shapes_and_operands_are_rejected():
    p = P(2, {(1, 0): 1, (0, 0): 1})
    with pytest.raises(ValueError, match=r"^exponent vector \(1,\) has wrong length$"):
        P(2, {(1,): 1})
    with pytest.raises(AttributeError, match="^LaurentPolynomial is immutable$"):
        p.nvars = 3
    assert p.nvars == 2
    # an operand that is neither a polynomial nor an int is NotImplemented
    assert p != "1 + y1" and p != 1.0
    for combine in (add, sub, mul, lambda a, b: b + a, lambda a, b: b * a):
        with pytest.raises(TypeError):
            combine(p, "y1")
    for combine in (add, sub, mul):
        with pytest.raises(ValueError, match="^variable counts differ$"):
            combine(p, P(3, {(0, 0, 0): 1}))
    with pytest.raises(ValueError, match="^variable counts differ$"):
        exact_divide(p, P(1, {(0,): 1}))


def test_exact_divide_rejects_an_operand_that_is_not_a_polynomial():
    # an int operand used to be a bare AttributeError: 'int' object has no attribute 'nvars'
    p = P(1, {(1,): 2})
    for a, b, names in ((p, 2, "LaurentPolynomial and int"),
                        (2, p, "int and LaurentPolynomial"),
                        (p, None, "LaurentPolynomial and NoneType")):
        with pytest.raises(TypeError, match=rf"^exact_divide needs two LaurentPolynomial operands, "
                                            rf"not {names}$"):
            exact_divide(a, b)


def test_inexact_division_raises():
    y1 = LaurentPolynomial.variable(1, 1)
    with pytest.raises(InexactDivision):
        exact_divide(1 + y1, P(1, {(1,): 1}) + 2)
    with pytest.raises(InexactDivision, match="coefficient"):
        exact_divide(P(1, {(1,): 3}), P(1, {(1,): 2}))
    # (1 + y1^2) - (y1 - 1)(1 + y1) leaves 2, below the divisor's leading y1
    with pytest.raises(InexactDivision, match="leading monomial"):
        exact_divide(1 + y1 ** 2, 1 + y1)
    # the second quotient term y1 lies past deg p - deg q = (0, 1) in y1
    with pytest.raises(InexactDivision, match="degree box"):
        exact_divide(P(2, {(1, 0): 1, (0, 2): 1}), P(2, {(1, 0): 2, (0, 1): 1}))
    # 3*y1 over the leading term 2*y1
    with pytest.raises(InexactDivision, match="^leading coefficient is not divisible$"):
        exact_divide(1 + 3 * y1, 1 + 2 * y1)


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
    assert P(2, {(1, 0): -1, (0, 1): 2}).to_text() == "-y1 + 2*y2"


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
    assert parse_monomial("1*y2", 2) == parse_monomial("y2 * 1", 2) == (0, 1)
    assert parse_monomial("y2^-2", 2) == (0, -2)
    with pytest.raises(ParseError):
        parse_monomial("x1", 2)
    with pytest.raises(ParseError):
        parse_monomial("y9", 2)
    for text in ("y1^x", "y+1", "y1^1_0"):  # not an ASCII decimal
        with pytest.raises(ParseError, match="bad monomial factor"):
            parse_monomial(text, 2)


def test_degree_helpers():
    p = P(2, {(3, 1): 1, (1, 2): 4})
    assert p.degree_vector() == (3, 2)
    assert p.total_degree() == 4
    assert p.min_exponent_vector() == (1, 1)
    assert p.coefficient((1, 2)) == 4
    assert p.is_polynomial()
    assert not P(2, {(-1, 0): 1}).is_polynomial()


@st.composite
def laurent_operands(draw):
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-4, 4)] * nvars)
    coeffs = st.integers(-9, 9) | st.integers(-10 ** 30, 10 ** 30)
    polys = st.dictionaries(exps, coeffs, max_size=8).map(lambda t: P(nvars, t))
    return draw(polys), draw(polys)


@given(laurent_operands())
def test_exact_divide_inverts_multiply(case):
    p, q = case
    if not q:
        with pytest.raises(ZeroDivisionError):
            exact_divide(p * q, q)
        return
    assert exact_divide(p * q, q) == p
    # a monomial is a unit, and a divisor of two or more terms is not
    if len(q.terms) > 1:
        with pytest.raises(InexactDivision):
            exact_divide(LaurentPolynomial.monomial((1,) * q.nvars, 7), q)


@st.composite
def one_term_divisions(draw):
    # any coefficient sign, negative exponents allowed; small coefficients
    # so that both divisible and indivisible numerators come up
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-4, 4)] * nvars)
    coeffs = st.integers(-12, 12) | st.integers(-10 ** 30, 10 ** 30)
    p = P(nvars, draw(st.dictionaries(exps, coeffs, max_size=8)))
    return p, LaurentPolynomial.monomial(draw(exps), draw(coeffs.filter(bool)))


@example((P(2, {(0, 0): 6, (1, -1): -4}), P(2, {(2, -3): -2})))
@example((P(2, {(0, 0): 6, (1, -1): 3}), P(2, {(2, -3): -2})))
@given(one_term_divisions())
def test_one_term_divisor_is_a_shift(case):
    p, m = case
    ((exps, coeff),) = m.terms.items()
    assert exact_divide(p * m, m) == p
    if all(Fraction(c, coeff).denominator == 1 for c in p.terms.values()):
        quotient = exact_divide(p, m)
        assert quotient * m == p
        assert quotient.terms == {tuple(map(sub, e, exps)): Fraction(c, coeff)
                                  for e, c in p.terms.items()}
    else:
        with pytest.raises(InexactDivision, match="^leading coefficient is not divisible$"):
            exact_divide(p, m)


def _sympy_terms(p, names):
    """{sympy monomial: coefficient} of p."""
    return {sympy.Mul(*(x ** e for x, e in zip(names, exps))): c
            for exps, c in p.terms.items()}


def _sympy_product_terms(p, q, names):
    """{sympy monomial: coefficient} of the sympy expansion of p * q."""
    def expression(poly):
        return sympy.Add(*(m * c for m, c in _sympy_terms(poly, names).items()))

    product = sympy.expand(expression(p) * expression(q))
    return {m: c for m, c in product.as_coefficients_dict().items() if c}


@settings(max_examples=60, deadline=None)
@given(laurent_operands())
def test_mul_matches_sympy(case):
    p, q = case
    names = sympy.symbols(f"y1:{p.nvars + 1}")
    assert _sympy_terms(p * q, names) == _sympy_product_terms(p, q, names)


# a constant, and a square whose terms all share one exponent of y2 (span 0)
@example((P(2, {(0, 0): -7}), P(2, {})))
@example((P(2, {(1, -2): 3, (4, -2): -5, (0, -2): 2}), P(2, {})))
@settings(max_examples=60, deadline=None)
@given(laurent_operands())
def test_square_and_powers_match_generic_products(case):
    # p * p forms each unordered pair once; a distinct terms dict takes the
    # generic all-pairs loop, which the square and every power must equal
    p, _ = case
    copy = P(p.nvars, dict(p.terms))
    assert p * p == p * copy
    names = sympy.symbols(f"y1:{p.nvars + 1}")
    assert _sympy_terms(p * p, names) == _sympy_product_terms(p, p, names)
    expected = LaurentPolynomial.one(p.nvars)
    for e in range(5):
        assert p ** e == expected
        expected = expected * copy


@given(laurent_operands())
def test_print_order_matches_reference_key(case):
    # ascending total degree, then descending lexicographic within a degree
    p, _ = case
    order = sorted(p.terms, key=lambda e: (sum(e), tuple(-x for x in e)))
    assert p.sorted_terms() == [(e, p.terms[e]) for e in order]
    assert p.to_json_terms() == [{"exponents": list(e), "coeff": str(p.terms[e])}
                                 for e in order]


@st.composite
def printable_polys(draw):
    nvars = draw(st.integers(0, 4))
    exps = st.tuples(*[st.integers(-3, 6)] * nvars)
    coeffs = st.integers(-9, 9) | st.sampled_from((10 ** 30, -10 ** 30))
    return P(nvars, draw(st.dictionaries(exps, coeffs, max_size=12)))


@example(P(3, {}))
@example(P(0, {(): -1}))
@example(P(2, {(0, 0): 10 ** 30}))
@given(printable_polys())
def test_text_matches_the_per_term_reference(p):
    # the column-wise text equals the one-list-per-term reference, and its
    # terms read back as the JSON terms: sign, magnitude and monomial
    text = p.to_text()
    assert text == text_per_term(p)
    json_terms = p.to_json_terms()
    if not p:
        assert text == "0"
        return
    terms = text.replace(" - ", " + -").split(" + ")
    assert len(terms) == len(json_terms)
    for term, expected in zip(terms, json_terms):
        sign, body = (-1, term[1:]) if term.startswith("-") else (1, term)
        head, _, rest = body.partition("*")
        assert not (head == "1" and rest)  # a unit coefficient prints no magnitude
        mag, monomial = (int(head), rest) if head.isdigit() else (1, body)
        assert str(sign * mag) == expected["coeff"]
        assert list(parse_monomial(monomial, p.nvars)) == expected["exponents"]


def test_recurrence_matches_formula_k3_n6(k3):
    # about 4,000 terms: the heap division's size, not a toy
    seq = (1, 2, 1, 2, 1, 2)
    assert fpoly_recurrence(k3, seq)[-1] == fpoly_formula(trace(k3, seq), 6)


# 0 and the spans where a slot of the packed layout gains a bit
EDGE_SPANS = (0, 1, 2, 3, 4, 7, 8, 15, 16)


@st.composite
def bounded_operands(draw):
    nvars = draw(st.integers(1, 5))
    bound = draw(st.tuples(*[st.sampled_from(EDGE_SPANS)] * nvars))
    # up to twice the bound, so some terms and many pairs fall outside it
    exps = st.tuples(*[st.integers(0, max(2 * b, 1)) for b in bound])
    coeffs = st.integers(-9, 9) | st.integers(-10 ** 30, 10 ** 30)
    polys = st.dictionaries(exps, coeffs, max_size=12).map(lambda t: P(nvars, t))
    return draw(polys), draw(polys), bound


# x1 * x2 is in the box (1, 1) only past the inner key x1, whose pair with x1
# fails in x1's slot: a skip that starts from one slot too high drops it
@example((P(2, {(1, 0): 1}), P(2, {(1, 0): 1, (0, 1): 1}), (1, 1)))
@given(bounded_operands())
def test_mul_truncated_equals_truncated_product(case):
    # the in-box kernel on packed keys, in either operand order
    p, q, bound = case
    layout = _Packing(bound)
    expected = truncate(p * q, bound)
    a, b = layout.pack_within(p.terms), layout.pack_within(q.terms)
    for outer, inner in ((a, b), (b, a)):
        product = _mul_within(layout, outer, inner)
        assert all(product.values())
        assert layout.poly(product, (0,) * p.nvars) == expected


@st.composite
def packing_cases(draw):
    span = draw(st.lists(st.sampled_from(EDGE_SPANS) | st.integers(0, 1000),
                         min_size=1, max_size=5))
    low = draw(st.tuples(*[st.integers(-50, 50)] * len(span)))
    within_span = st.tuples(*[st.integers(0, x) for x in span])
    return span, low, draw(within_span), draw(within_span)


@given(packing_cases())
def test_packing_roundtrip_and_within(case):
    span, low, x, y = case
    layout = _Packing(span)
    # each slot sized to its own span, one bit over: a span of 0 takes one bit
    assert layout.top == sum(s.bit_length() + 1 for s in span)
    shifted = tuple(map(add, x, low))
    assert layout.unpack(layout.pack(shifted) - layout.pack(low), low) == shifted
    assert layout.within(layout.pack(x), layout.pack(y)) == all(map(le, x, y))
    assert layout.within(layout.pack(x), layout.limit - layout.guards)
    assert layout.pack_within({x: 1, y: 2}) == {layout.pack(x): 1, layout.pack(y): 2}


@st.composite
def lopsided_operands(draw):
    # each operand gets its own spans, from 0 to hundreds, and offsets
    nvars = draw(st.integers(1, 4))
    coeffs = (st.integers(-9, 9) | st.integers(-10 ** 30, 10 ** 30)).filter(bool)

    def poly():
        spans = draw(st.tuples(*[st.sampled_from((0, 1, 3, 40, 300))] * nvars))
        low = draw(st.tuples(*[st.integers(-5, 5)] * nvars))
        exps = st.tuples(*[st.integers(a, a + x) for a, x in zip(low, spans)])
        return P(nvars, draw(st.dictionaries(exps, coeffs, min_size=1, max_size=6)))

    return poly(), poly()


@given(lopsided_operands())
def test_exact_divide_inverts_multiply_across_spans(case):
    p, q = case
    assert exact_divide(p * q, q) == p
    assert exact_divide(p * q, p) == q


@st.composite
def packed_terms(draw):
    # nvars 0..6, spans with zeros, offsets below zero, and zero coefficients
    nvars = draw(st.integers(0, 6))
    span = draw(st.tuples(*[st.sampled_from(EDGE_SPANS) | st.integers(0, 300)] * nvars))
    low = draw(st.tuples(*[st.integers(-50, 50)] * nvars))
    layout = _Packing(span)
    exps = st.tuples(*[st.integers(0, x) for x in span])
    coeffs = st.integers(-3, 3) | st.integers(-10 ** 30, 10 ** 30)
    terms = draw(st.dictionaries(exps, coeffs, max_size=20))
    return layout, {layout.pack(e): c for e, c in terms.items()}, low


@given(packed_terms())
def test_poly_unpacks_like_unpack_in_key_order(case):
    # the column-wise unpacking equals the per-key map, order included
    layout, terms, low = case
    expected = [(layout.unpack(k, low), c) for k, c in terms.items() if c]
    poly = layout.poly(terms, low)
    assert poly.nvars == len(low)
    assert list(poly.terms.items()) == expected


# -- the two accumulators: a list over the box, and a dict of packed keys ----


def _product_args(a, b):
    """The kernel arguments of the product of two nonempty terms dicts."""
    (low_a, high_a), (low_b, high_b) = _span(a), _span(b)
    return a, b, low_a, low_b, tuple(map(add, map(sub, high_a, low_a), map(sub, high_b, low_b)))


def _division_args(p, q):
    """The kernel arguments of the quotient of two nonempty terms dicts."""
    (p_low, p_high), (q_low, q_high) = _span(p), _span(q)
    return p, q, p_low, q_low, tuple(map(sub, p_high, p_low)), tuple(map(sub, q_high, q_low))


def _naive_product(p, q):
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(map(add, e1, e2))
            terms[e] = terms.get(e, 0) + c1 * c2
    return P(p.nvars, terms)


@st.composite
def accumulator_operands(draw):
    # 0-4 variables, negative exponents, signed coefficients, both nonempty;
    # a unit monomial to add to a product, which makes it indivisible
    nvars = draw(st.integers(0, 4))
    exps = st.tuples(*[st.integers(-3, 3)] * nvars)
    coeffs = (st.integers(-9, 9) | st.integers(-10 ** 30, 10 ** 30)).filter(bool)
    polys = st.dictionaries(exps, coeffs, min_size=1, max_size=8).map(lambda t: P(nvars, t))
    return draw(polys), draw(polys), LaurentPolynomial.monomial(draw(exps), draw(coeffs))


@example((P(2, {(0, 0): 1, (3, 3): 1}), P(2, {(0, 0): 1, (-3, 3): 1}), P(2, {(0, 0): 1})))
@example((P(0, {(): -2}), P(0, {(): 3}), P(0, {(): 1})))
@given(accumulator_operands())
def test_product_accumulators_agree(case):
    # the product and the square, each by both kernels called directly
    p, q, _ = case
    for a, b in ((p, q), (p, p)):
        expected = _naive_product(a, b)
        args = _product_args(a.terms, a.terms if b is a else b.terms)
        assert _mul_dense(*args) == _mul_packed(*args) == expected


@example((P(1, {(0,): 1, (1,): 1}), P(1, {(0,): 1, (1,): 1}), P(1, {(0,): 1})))
@example((P(2, {(0, 0): 1}), P(2, {(0, 0): 2, (1, -1): 3, (-1, 2): 1}), P(2, {(2, 0): 5})))
@given(accumulator_operands())
def test_division_accumulators_agree(case):
    # p*q / q on both kernels; (p*q + m) / q for a unit monomial m is never
    # exact, as q of two or more terms is not a unit, and raises on both
    p, q, m = case
    if len(q.terms) < 2:
        return
    product = p * q
    exact = _division_args(product.terms, q.terms)
    assert _divide_dense(*exact) == _divide_packed(*exact) == p
    inexact = _division_args((product + m).terms, q.terms)
    for kernel in (_divide_dense, _divide_packed):
        with pytest.raises(InexactDivision):
            kernel(*inexact)


@pytest.mark.parametrize("kernel", [_divide_dense, _divide_packed])
@pytest.mark.parametrize("p, q, message", [
    # (1 + y1^2) - (y1 - 1)(1 + y1) leaves 2, below the divisor's leading y1
    (P(1, {(0,): 1, (2,): 1}), P(1, {(0,): 1, (1,): 1}), "leading monomial is not divisible"),
    # the leading y1^2, in either order, lacks the y2 of the divisor's lead
    # y1*y2; the list positions of y2 * (1 + y1*y2) are those of y1^2 + y2
    (P(2, {(2, 0): 1, (0, 1): 1}), P(2, {(1, 1): 1, (0, 0): 1}),
     "leading monomial is not divisible"),
    # the first quotient term, y2^2 in lex order or y1*y2 in the packed graded
    # order, lies past deg p' - deg q' = (0, 1)
    (P(2, {(1, 2): 1, (0, 1): 1, (0, 0): 1, (1, 0): 1}), P(2, {(1, 0): 1, (0, 1): 1}),
     "quotient term lies outside the degree box"),
    (P(1, {(0,): 1, (1,): 3}), P(1, {(0,): 1, (1,): 2}), "leading coefficient is not divisible"),
])
def test_each_kernel_names_its_rejection(kernel, p, q, message):
    with pytest.raises(InexactDivision, match=f"^{message}$"):
        kernel(*_division_args(p.terms, q.terms))


def test_kernel_choice_by_box_and_pairs(monkeypatch):
    # the recurrence's large products and quotients fill their boxes, so they
    # take the lists; a square with an exponent of 10^30 and its quotient
    # form a handful of pairs in a box of 2*10^30 + 1 cells, so they take
    # the packed dicts and never allocate the box
    calls = Counter()
    for name in ("_mul_dense", "_mul_packed", "_divide_dense", "_divide_packed"):
        def spy(*args, kernel=getattr(laurent, name), name=name):
            calls[name] += 1
            return kernel(*args)
        monkeypatch.setattr(laurent, name, spy)
    q = build_family(FamilySpec.of("kr", r=2))
    f19 = fpoly_recurrence(q, canonical_sequence(2, 19))[-1]
    assert len(f19.terms) == 191
    assert calls == {"_mul_dense": 16, "_mul_packed": 2, "_divide_dense": 17}
    calls.clear()
    f = 1 + LaurentPolynomial.monomial((10 ** 30,))
    assert exact_divide(f ** 2, f) == f
    assert calls == {"_mul_packed": 1, "_divide_packed": 1}


def test_zero_vertices():
    # no variables means no slots to unpack: F_0 is still 1, not 0
    q = make_quiver([])
    one = LaurentPolynomial.one(0)
    assert fpoly_formula(trace(q, ()), 0) == one
    assert fpoly_product_form(trace(q, ()), 0) == one
    assert fpoly_recurrence(q, ()) == []  # no step, so the CLI prints one(0)
    assert LaurentPolynomial.constant(0, 3) * LaurentPolynomial.constant(0, 2) == 6
