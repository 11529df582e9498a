import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clusterforge import (LaurentPolynomial, coefficient_of, deform,
                          deformed_formula, degree_bounds, enumerate_sequences,
                          fpoly_formula, fpoly_product_form, fpoly_recurrence,
                          phi, trace, w_value)
from clusterforge.closedform import _power_truncated
from clusterforge.laurent import truncate
from conftest import random_sequence, random_skew_symmetric

GOLDEN_F3 = {(0, 0): 1, (1, 0): 3, (2, 0): 3, (3, 0): 1, (2, 1): 2, (3, 1): 2,
             (3, 2): 1}


def test_phi_values():
    assert phi((1, 1, 1)) == Fraction(1, 6)
    assert phi((1, 2)) == 1
    assert phi(()) == 1
    assert phi((2, 2, 3, 3, 3)) == Fraction(1, 12)


def test_w_values_k2(k2):
    tr = trace(k2, (1, 2, 1))
    expected = {(1,): 3, (1, 1): 6, (1, 1, 1): 6, (1, 2): 2, (2,): 2, (3,): 1}
    for w, value in expected.items():
        assert w_value(tr, 3, w) == value
    assert w_value(tr, 3, ()) == 1
    assert w_value(tr, 3, (3,)) == 1  # single entry (n,) gives a(n,n) = 1


def test_w_value_validates(k2):
    tr = trace(k2, (1, 2, 1))
    with pytest.raises(ValueError):
        w_value(tr, 3, (2, 1))
    with pytest.raises(ValueError):
        w_value(tr, 3, (0,))


def test_enumerate_sequences_k2(k2):
    tr = trace(k2, (1, 2, 1))
    seqs = set(enumerate_sequences(tr, 3, (3, 2)))
    assert seqs == {(), (1,), (1, 1), (1, 1, 1), (1, 2), (2,), (3,)}
    assert set(enumerate_sequences(tr, 3, (0, 0))) == {()}


def test_enumerate_matches_unpruned_bruteforce(k2):
    # compare against direct enumeration of all short nondecreasing sequences
    tr = trace(k2, (1, 2, 1))
    bound = degree_bounds(k2, (1, 2, 1))
    brute = set()

    def rec(prefix, start):
        if len(prefix) > 5:
            return
        total = [0, 0]
        for w in prefix:
            total = [a + b for a, b in zip(total, tr.r(w))]
        if all(a <= b for a, b in zip(total, bound)):
            brute.add(tuple(prefix))
            for w in range(start, 4):
                rec(prefix + [w], w)

    rec([], 1)
    assert set(enumerate_sequences(tr, 3, bound)) == brute


def test_formula_golden(k2):
    tr = trace(k2, (1, 2, 1))
    assert fpoly_formula(tr, 3) == LaurentPolynomial(2, GOLDEN_F3)
    assert fpoly_formula(tr, 0) == LaurentPolynomial.one(2)


def test_formula_equals_recurrence_a2(a2):
    tr = trace(a2, (1, 2))
    assert fpoly_formula(tr, 2) == fpoly_recurrence(a2, (1, 2))[-1]


def test_coefficient_of(k2):
    tr = trace(k2, (1, 2, 1))
    assert coefficient_of(tr, 3, (3, 1)) == 2
    assert coefficient_of(tr, 3, (0, 0)) == 1
    # beyond the degree bound the sequence contributions cancel exactly
    assert coefficient_of(tr, 3, (4, 2)) == 0
    assert coefficient_of(tr, 3, (5, 3)) == 0


def test_coefficient_of_fundamentals_matches_lemma(k2):
    # for a fundamental monomial the coefficient is -(g - r) * (C_n^{-1} m)[v_n]
    from clusterforge.intmat import mat_vec

    tr = trace(k2, (1, 2, 1))
    for i in (1, 2, 3):
        m = tr.r(i)
        expected = -mat_vec(tr.cinv_mats[3], m)[tr.vertex(3) - 1]
        assert coefficient_of(tr, 3, m) == expected


def test_product_form_golden(k2):
    tr = trace(k2, (1, 2, 1, 2))
    assert fpoly_product_form(tr, 3) == LaurentPolynomial(2, GOLDEN_F3)
    assert fpoly_product_form(tr, 4) == fpoly_recurrence(k2, (1, 2, 1, 2))[-1]


def test_product_form_single_step(k2):
    tr = trace(k2, (1,))
    assert fpoly_product_form(tr, 1) == LaurentPolynomial(2, {(0, 0): 1, (1, 0): 1})


def test_product_form_dp1(dp1):
    seq = (1, 2, 3, 4)
    tr = trace(dp1, seq)
    assert fpoly_product_form(tr, 4) == fpoly_recurrence(dp1, seq)[-1]


def test_product_form_k3_n5(k3):
    tr = trace(k3, (1, 2, 1, 2, 1))
    assert fpoly_product_form(tr, 5) == fpoly_formula(tr, 5)


def _invert_then_power(p, e, bound):
    """Reference: series inverse of 1 + x for e < 0, then repeated multiply."""
    one = LaurentPolynomial.one(p.nvars)
    if e < 0:
        x, inverse, power, sign = p - 1, one, one, 1
        while True:
            power = truncate(power * x, bound)
            if not power:
                break
            sign = -sign
            inverse = inverse + sign * power
        p, e = inverse, -e
    result = one
    for _ in range(e):
        result = truncate(result * p, bound)
    return result


@st.composite
def unit_series(draw):
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nvars).filter(any)
    x = draw(st.dictionaries(exps, st.integers(-4, 4).filter(bool),
                             min_size=1, max_size=5))
    bound = draw(st.tuples(*[st.integers(0, 8)] * nvars))
    return LaurentPolynomial(nvars, x) + 1, bound


@given(unit_series(), st.integers(-6, 6))
def test_binomial_series_equals_invert_then_power(series, e):
    p, bound = series
    assert _power_truncated(p, e, bound) == _invert_then_power(p, e, bound)


def test_binomial_series_needs_unit_constant():
    y = LaurentPolynomial.variable(2, 1)
    with pytest.raises(ValueError):
        _power_truncated(2 + y, -1, (3, 3))


def test_three_methods_agree_on_random_cases():
    rng = random.Random(23)
    checked = 0
    while checked < 25:
        q = random_skew_symmetric(rng, rng.randint(2, 3))
        seq = random_sequence(rng, q.v, rng.randint(1, 6))
        if sum(degree_bounds(q, seq)) > 30:
            continue
        tr = trace(q, seq)
        rec = fpoly_recurrence(q, seq)[-1]
        assert fpoly_formula(tr, len(seq)) == rec
        assert fpoly_product_form(tr, len(seq)) == rec
        checked += 1


def test_deformed_formula_definitional(k2):
    tr = trace(k2, (1, 2, 1))
    f3 = fpoly_formula(tr, 3)
    assert deformed_formula(tr, 3) == deform(f3, tr.c_mats[3])
    assert deformed_formula(tr, 0) == LaurentPolynomial.one(2)


def test_deformed_golden_s3(k2):
    tr = trace(k2, (1, 2, 1))
    s3 = deformed_formula(tr, 3)
    assert s3 == LaurentPolynomial(2, {
        (0, 0): 1, (1, 0): 1, (2, 1): 2, (3, 2): 3, (5, 3): 2, (6, 4): 3,
        (9, 6): 1,
    })


def test_deformed_low_terms_approach_a1r_limit(a12):
    # by n = 9 the total-degree <= 4 coefficients agree with the closed form
    from clusterforge import limit_a1r

    seq = tuple(1 + (i % 3) for i in range(9))
    tr = trace(a12, seq)
    s9 = deformed_formula(tr, 9)
    lim = limit_a1r(2, 4)
    for exps, coeff in lim.terms.items():
        assert s9.coefficient(exps) == coeff
    for exps, coeff in s9.terms.items():
        if sum(exps) <= 4:
            assert lim.coefficient(exps) == coeff


def test_deformed_coefficients_match_full_deformation(a12, dp1):
    from clusterforge.closedform import deformed_coefficients

    for q, period, n, cutoff in ((a12, 3, 6, 6), (dp1, 4, 8, 4)):
        seq = tuple(1 + (i % period) for i in range(n))
        tr = trace(q, seq)
        full = deformed_formula(tr, n)
        within = {e: c for e, c in full.terms.items() if sum(e) <= cutoff}
        assert deformed_coefficients(tr, n, cutoff) == within
