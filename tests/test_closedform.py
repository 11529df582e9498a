import random
from fractions import Fraction

from itertools import product
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clusterforge import (LaurentPolynomial, coeff_a, coeff_b, coefficient_of,
                          deform, deformed_formula, degree_bounds,
                          enumerate_sequences, fpoly_formula, fpoly_product_form,
                          fpoly_recurrence, make_quiver, phi, trace, w_value)
from clusterforge.closedform import (_power_truncated, _sequence_sum,
                                     deformed_coefficients)
from clusterforge.errors import BadParameters, NonIntegerCoefficient
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
    # n is checked against the trace even for the empty sequence
    for n in (99, 4, -2):
        with pytest.raises(ValueError, match="n out of trace range"):
            w_value(tr, n, ())
    assert w_value(tr, 0, ()) == 1


def test_enumerate_sequences_k2(k2):
    tr = trace(k2, (1, 2, 1))
    # depth first, each sequence before its extensions, smallest index first
    assert list(enumerate_sequences(tr, 3, (3, 2))) == [
        (), (1,), (1, 1), (1, 1, 1), (1, 2), (2,), (3,)]
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


def test_enumerate_sequences_has_no_depth_limit(k2):
    # 1,500 copies of r_1 = y1 fit the bound; a recursive walk hit the
    # interpreter's recursion limit here
    tr = trace(k2, (1,))
    seqs = list(enumerate_sequences(tr, 1, (1500, 0)))
    assert len(seqs) == 1501
    assert seqs[-1] == (1,) * 1500


def test_sequence_sum_rejects_zero_or_negative_step():
    one = lambda c: 1  # noqa: E731
    with pytest.raises(ValueError):
        _sequence_sum([(1, 0), (0, 0)], one, lambda c, e: 0, (3, 3))
    with pytest.raises(ValueError):
        _sequence_sum([(2, -1)], one, lambda c, e: 0, (3, 3))


def test_sequence_sum_counts_multisets():
    # the k-th copy of an index has the factor k, so phi * W = 1 for every
    # multiset and each monomial that passes the bound and cap gets 1
    steps, tail, pair = [(1, 0), (0, 1)], lambda c: 1, lambda c, e: int(c == e)

    def box(cap):
        return {(a, b): 1 for a in range(2) for b in range(4) if a + b <= cap}

    assert _sequence_sum(steps, tail, pair, (1, 3)).terms == box(4)
    assert _sequence_sum(steps, tail, pair, (1, 3), cap=2).terms == box(2)
    assert _sequence_sum(steps, tail, pair, (1, 3), target=(1, 2)) == 1
    assert _sequence_sum(steps, tail, pair, (0, 0), target=(0, 0)) == 1


def test_sequence_sum_raises_when_weights_do_not_cancel():
    # one candidate with factor 1 at every position: the sequence (0, 0)
    # carries phi = 1/2 alone on y^2
    steps, tail, pair = [(1,)], lambda c: 1, lambda c, e: 0
    assert _sequence_sum(steps, tail, pair, (1,)) == LaurentPolynomial(1, {(0,): 1, (1,): 1})
    with pytest.raises(NonIntegerCoefficient):
        _sequence_sum(steps, tail, pair, (2,))
    with pytest.raises(NonIntegerCoefficient):
        _sequence_sum(steps, tail, pair, (2,), target=(2,))
    assert _sequence_sum(steps, tail, pair, (2,), target=(1,)) == 1


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


def test_coefficient_of_validates_n(k2):
    tr = trace(k2, (1, 2, 1))
    for n in (-3, -1, 4):
        with pytest.raises(ValueError, match="n out of trace range"):
            coefficient_of(tr, n, (0, 0))


def test_coefficient_of_rejects_wrong_length_monomial(k2):
    # (1,) and (1, 0, 0) used to read as y1 through a packing sized from the monomial
    tr = trace(k2, (1, 2, 1))
    for monomial in ((1,), (1, 0, 0), ()):
        with pytest.raises(ValueError, match="needs 2 exponents"):
            coefficient_of(tr, 3, monomial)
    assert coefficient_of(tr, 3, (1, 0)) == 3


def test_deformed_coefficients_rejects_negative_cutoff(k2):
    tr = trace(k2, (1, 2, 1))
    with pytest.raises(BadParameters, match="cutoff must be nonnegative"):
        deformed_coefficients(tr, 3, -1)


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


def test_binomial_series_shares_powers():
    # one list of powers of x on one base serves every exponent, in any order,
    # and each result equals a fresh series
    y1, y2 = LaurentPolynomial.variable(2, 1), LaurentPolynomial.variable(2, 2)
    p = 1 + 2 * y1 + y1 * y2 - y2 * y2
    bound = (5, 4)
    powers = []
    sizes = []
    for e in (3, -2, 5, -4):
        assert _power_truncated(p, e, bound, powers) == _power_truncated(p, e, bound)
        sizes.append(len(powers))
    x = truncate(p - 1, bound)
    for k, power in enumerate(powers, start=1):
        assert power == truncate(x ** k, bound)
    # 3 and 5 need x^3 and x^5; a negative exponent runs to the first empty power
    assert sizes[0] == 3
    assert sizes == sorted(sizes) and not powers[-1]


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


def _reference_formula_sum(n, rvecs, tail, pair, bound, nvars):
    """The recursive Fraction sum that the sequence-sum kernel replaced."""
    acc: dict[tuple[int, ...], Fraction] = {}

    def visit(max_next, exps, w_prod, phi_den, last, run):
        acc[exps] = acc.get(exps, Fraction(0)) + Fraction(w_prod, phi_den)
        for w in range(max_next, 0, -1):
            rv = rvecs[w - 1]
            new_exps = tuple(a + b for a, b in zip(exps, rv))
            if any(a > b for a, b in zip(new_exps, bound)):
                continue
            elements, counts = run
            factor = tail(w) + sum(
                c * pair(w, e) for e, c in zip(elements, counts)
            )
            new_w = w_prod * factor
            if new_w == 0:
                continue
            if w == last:
                new_run = (elements, counts[:-1] + [counts[-1] + 1])
                new_den = phi_den * new_run[1][-1]
            else:
                new_run = (elements + [w], counts + [1])
                new_den = phi_den
            visit(w, new_exps, new_w, new_den, w, new_run)

    visit(n, (0,) * nvars, 1, 1, 0, ([], []))
    assert all(value.denominator == 1 for value in acc.values())
    return LaurentPolynomial(nvars, {e: int(x) for e, x in acc.items()})


def _reference_fpoly(tr, n, bound):
    return _reference_formula_sum(
        n, [tr.r(i) for i in range(1, n + 1)], lambda w: coeff_a(tr, w, n),
        lambda i, j: -coeff_a(tr, i, j) + coeff_b(tr, i, j), bound, tr.v)


@st.composite
def traced_quivers(draw):
    """A skew-symmetric quiver, v <= 4, and a sequence of length <= 7."""
    v = draw(st.integers(2, 4))
    b = [[0] * v for _ in range(v)]
    for i in range(v):
        for j in range(i + 1, v):
            b[i][j] = draw(st.sampled_from((-2, -1, 1, 2, 0)))
            b[j][i] = -b[i][j]
    # no vertex twice in a row: a repeated step undoes itself
    seq = [draw(st.integers(1, v))]
    for _ in range(draw(st.integers(1, 6))):
        seq.append((seq[-1] + draw(st.integers(1, v - 1)) - 1) % v + 1)
    seq = tuple(seq)
    q = make_quiver(b)
    bound = degree_bounds(q, seq)
    assume(sum(bound) <= 30 and prod(x + 1 for x in bound) <= 1000)
    return trace(q, seq), bound


@settings(max_examples=150, deadline=None)
@given(traced_quivers(), st.integers(0, 12))
def test_sequence_sum_matches_recursive_reference(case, cutoff):
    tr, bound = case
    n = tr.n
    expected = _reference_fpoly(tr, n, bound)
    assert fpoly_formula(tr, n) == expected
    for m in product(*(range(x + 1) for x in bound)):
        assert coefficient_of(tr, n, m) == expected.coefficient(m)
    if all(color == "green" for color in tr.colors):
        deformed = deform(expected, tr.c_mats[n])
        within = {e: c for e, c in deformed.terms.items() if sum(e) <= cutoff}
        assert deformed_coefficients(tr, n, cutoff) == within
