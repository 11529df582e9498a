import random
from fractions import Fraction

import pytest

from clusterforge import (LaurentPolynomial, QuadraticNumber, SSequence,
                          build_gale_robinson, deform,
                          deformed_formula, dp1_coefficient, fpoly_gale_robinson,
                          fpoly_kr, fpoly_recurrence, fpoly_symmetric,
                          fundamentals, green_excess_probe, is_polynomial,
                          limit_a1r, limit_gale_robinson, limit_kr,
                          framed_state, limits_match_up_to_cycle, make_quiver,
                          mutate, stabilization_run, trace)
from clusterforge.closedform import deformed_coefficients
from clusterforge.errors import BadParameters, RedStepEncountered
from clusterforge.intmat import identity
from clusterforge.stabilization import _labels_after
from conftest import random_sequence, random_skew_symmetric


def P(nvars, terms):
    return LaurentPolynomial(nvars, terms)


def test_deform_trivial_cases():
    one = LaurentPolynomial.one(2)
    assert deform(one, identity(2)) == one
    p = P(2, {(2, 1): 5})
    assert deform(p, ((-1, 0), (0, -1))) == p


def test_deform_k2_example(k2):
    tr = trace(k2, (1, 2, 1))
    s3 = deform(P(2, {(3, 2): 1}), tr.c_mats[3])
    assert s3 == P(2, {(1, 0): 1})


def test_deform_is_monomial_bijection(k2):
    tr = trace(k2, (1, 2, 1))
    f3 = fpoly_recurrence(k2, (1, 2, 1))[-1]
    s3 = deform(f3, tr.c_mats[3])
    assert len(s3.terms) == len(f3.terms)


def test_is_polynomial():
    assert is_polynomial(LaurentPolynomial.one(2)) == (True, [])
    verdict, offenders = is_polynomial(P(2, {(0, 0): 1, (-1, 2): 3, (1, -1): 2}))
    assert not verdict
    assert offenders == [(1, -1), (-1, 2)]


def test_fundamentals_k2(k2):
    tr = trace(k2, (1, 2, 1))
    fset = fundamentals(tr, 3)
    flags = {e.monomial: e.fundamental for e in fset.entries}
    # r3 = y1^3 y2^2 is not a sum of copies of (1,0) and (2,1)
    assert flags == {(1, 0): True, (2, 1): True, (3, 2): True}
    assert all(e.coefficient_check for e in fset.entries)


def test_fundamentals_detects_products(a2):
    # on A2 with sequence (2,1,2,1) the fourth r-monomial is y1*y2, the
    # product of the two earlier degree-1 monomials
    tr = trace(a2, (2, 1, 2, 1))
    assert tr.r_monomials == ((0, 1), (1, 0), (0, 1), (1, 1))
    fset = fundamentals(tr, 4)
    flags = {e.monomial: e.fundamental for e in fset.entries}
    assert flags == {(0, 1): True, (1, 0): True, (1, 1): False}
    # color counts aggregate per distinct monomial
    by_monomial = {e.monomial: e for e in fset.entries}
    assert (by_monomial[(0, 1)].green, by_monomial[(0, 1)].red) == (1, 1)


def test_labels_from_recurrence_match_framed_mutation():
    # the label of vertex k after the sequence is F_i for the last step i at k
    rng = random.Random(37)
    for _ in range(40):
        q = random_skew_symmetric(rng, 3, max_entry=1)
        seq = random_sequence(rng, 3, rng.randint(0, 7))
        state = framed_state(q)
        for k in seq:
            state = mutate(state, k)
        fs = fpoly_recurrence(q, seq)
        assert _labels_after(seq, fs, q.v) == list(state.labels)
        tr = trace(q, seq)
        for n in range(len(seq) + 1):
            assert fundamentals(tr, n, fs=fs) == fundamentals(tr, n)


def test_green_excess_probe_green_trace(k2):
    tr = trace(k2, (1, 2, 1))
    report = green_excess_probe(tr)
    assert report.conjecture_consistent
    assert all(e.green - e.red >= 1 for e in report.entries)
    assert not report.failed_coefficient_checks


def test_green_excess_probe_empty(k2):
    report = green_excess_probe(trace(k2, ()))
    assert report.entries == ()
    assert report.conjecture_consistent


def test_green_excess_probe_random_sweep():
    # exhaustive small sweep; consistent with the positivity conjecture
    rng = random.Random(29)
    for _ in range(40):
        q = random_skew_symmetric(rng, 3)
        seq = random_sequence(rng, 3, rng.randint(1, 8))
        report = green_excess_probe(trace(q, seq), verify=False)
        assert report.conjecture_consistent


def test_green_excess_probe_a3_traces():
    q = make_quiver([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
    rng = random.Random(31)
    for _ in range(30):
        seq = random_sequence(rng, 3, 10)
        report = green_excess_probe(trace(q, seq), verify=False)
        assert report.conjecture_consistent


def test_stabilization_requires_green(a2):
    with pytest.raises(RedStepEncountered):
        stabilization_run(a2, (1, 2), 4, 4)


def test_stabilization_k2_constant_term(k2):
    report = stabilization_run(k2, (1, 2), 8, 6)
    assert report.all_stabilized
    assert report.histories[(0, 0)] == (1,) * 8


def test_stabilization_a12_matches_limit(a12):
    report = stabilization_run(a12, (1, 2, 3), 6, 6)
    assert report.all_stabilized
    assert limits_match_up_to_cycle(report, limit_a1r(2, 6)) is not None


@pytest.mark.parametrize("period", [(1.9, 2.2, 3.0), (1, 2, "3"), (True, 2, 3)])
def test_stabilization_rejects_non_integer_period(a12, period):
    # no entry is coerced: (1.9, 2.2, 3.0) must not run as the period (1, 2, 3)
    with pytest.raises(BadParameters):
        stabilization_run(a12, period, 2, 3)


def test_quadratic_number_arithmetic():
    root5 = QuadraticNumber.of(0, 1, 5)
    p = QuadraticNumber.of(Fraction(3, 2), Fraction(1, 2), 5)  # (3+sqrt5)/2
    inv_p = QuadraticNumber.of(Fraction(3, 2), Fraction(-1, 2), 5)
    assert (p * inv_p) == QuadraticNumber.of(1, 0, 5)
    assert (root5 * root5) == QuadraticNumber.of(5, 0, 5)
    assert (p ** 2).sign() == 1
    assert QuadraticNumber.of(2, -1, 5).sign() == -1  # 2 < sqrt(5)
    assert QuadraticNumber.of(3, -1, 5).sign() == 1   # 3 > sqrt(5)
    assert QuadraticNumber.of(-2, 1, 5).sign() == 1
    assert inv_p < QuadraticNumber.of(1, 0, 5)


def test_limit_a1r_closed_form():
    assert limit_a1r(1, 6) == P(2, {(0, 0): 1, (0, 1): 1, (1, 2): 2, (2, 3): 3})
    assert limit_a1r(1, 0) == LaurentPolynomial.one(2)
    assert limit_a1r(2, 0) == LaurentPolynomial.one(3)
    # coefficient of y1^e y2^(e+1) is e+1, from the double pole
    big = limit_a1r(1, 15)
    for e in range(0, 7):
        assert big.coefficient((e, e + 1)) == e + 1
    with pytest.raises(BadParameters):
        limit_a1r(0, 3)


def test_limit_kr_routes_r2():
    assert limit_kr(2, 8) == limit_a1r(1, 8)
    with pytest.raises(BadParameters):
        limit_kr(1, 3)


def test_limit_kr_support_law():
    # nonzero nonconstant monomials only at (floor(p*a) + 1, a), p = (3+sqrt5)/2
    lim = limit_kr(3, 30)
    disc = 5
    p = QuadraticNumber.of(Fraction(3, 2), Fraction(1, 2), disc)
    for (e1, e2), coeff in lim.terms.items():
        if (e1, e2) == (0, 0):
            continue
        # floor(p * e2) + 1 == e1, checked exactly
        lower = QuadraticNumber.of(e1 - 1, 0, disc)
        upper = QuadraticNumber.of(e1, 0, disc)
        scaled = p * QuadraticNumber.of(e2, 0, disc)
        assert lower <= scaled and scaled < upper
        assert coeff != 0


def test_limit_kr_matches_k3_run(k3):
    report = stabilization_run(k3, (1, 2), 8, 6)
    assert report.all_stabilized
    assert limits_match_up_to_cycle(report, limit_kr(3, 6)) is not None


def test_limit_gale_robinson_checks_parameters_like_build():
    for params in ((4, 1, 1), (4, 1, 3), (6, 2, 2), (4, 0, 1), (4, 2, 4)):
        with pytest.raises(BadParameters):
            build_gale_robinson(*params)
        with pytest.raises(BadParameters):
            limit_gale_robinson(*params, 4)


def test_limit_gale_robinson_golden(dp1):
    assert limit_gale_robinson(4, 2, 1, 0) == LaurentPolynomial.one(4)
    lim = limit_gale_robinson(4, 2, 1, 4)
    assert lim == P(4, {
        (0, 0, 0, 0): 1, (0, 0, 0, 1): 1, (0, 0, 1, 1): 1,
        (0, 1, 0, 2): 2, (1, 0, 2, 1): 3,
    })


@pytest.mark.parametrize("params, n_terms, total, pins", [
    ((4, 2, 1, 14), 53, 363, {(0, 5, 0, 6): 6, (1, 3, 2, 5): 7, (4, 2, 5, 3): 15,
                              (5, 0, 7, 1): 35, (6, 0, 7, 1): 13}),
    ((7, 2, 3, 10), 42, 61, {(0, 0, 0, 0, 1, 0, 1): 1, (1, 0, 1, 1, 1, 2, 2): 2,
                             (1, 1, 1, 2, 1, 2, 2): 4, (1, 1, 2, 1, 2, 1, 2): 2}),
])
def test_limit_gale_robinson_regression(params, n_terms, total, pins):
    # pinned term count, coefficient sum and coefficients: a change to how
    # the enumeration is organised must not move any of them
    lim = limit_gale_robinson(*params)
    assert len(lim.terms) == n_terms
    assert sum(lim.terms.values()) == total
    assert {m: lim.terms.get(m) for m in pins} == pins


@pytest.mark.parametrize("params, n_terms, total, pins", [
    ((3, 20), 7, 37, {(0, 0): 1, (1, 0): 1, (3, 1): 3, (8, 3): 8, (11, 4): 15,
                      (14, 5): 6}),
    ((4, 14), 4, 12, {(1, 0): 1, (4, 1): 4, (8, 2): 6}),
])
def test_limit_kr_regression(params, n_terms, total, pins):
    # pinned like test_limit_gale_robinson_regression: moving limit_kr onto
    # another enumeration must not change any of these
    lim = limit_kr(*params)
    assert len(lim.terms) == n_terms
    assert sum(lim.terms.values()) == total
    assert {m: lim.terms.get(m) for m in pins} == pins


def norm_limit_kr(r, cutoff):
    """Reference limit_kr: sum only the sequences whose norm stays <= 1.

    The norm sum_i (1/p)^{w_i} is compared in exact quadratic arithmetic at
    every sequence, and a sequence over 1 is dropped with its extensions.
    """
    disc = r * r - 4
    inv_p = QuadraticNumber.of(Fraction(r, 2), Fraction(-1, 2), disc)
    one = QuadraticNumber.of(1, 0, disc)
    ss = SSequence.kronecker(r)
    terms = {}
    stack = [((), QuadraticNumber.of(0, 0, disc), (0, 0), Fraction(1))]
    while stack:
        w, norm, (e1, e2), value = stack.pop()
        terms[(e1, e2)] = terms.get((e1, e2), 0) + value
        x = w[-1] if w else 0
        while ss.s(x) + ss.s(x - 1) + e1 + e2 <= cutoff:
            child = norm + inv_p ** x
            if not one < child:
                f = ss.s(x) - sum(ss.s(x - y) + ss.s(x - y - 2) for y in w)
                run = 1 + sum(1 for y in w if y == x)
                stack.append((w + (x,), child, (e1 + ss.s(x), e2 + ss.s(x - 1)),
                              value * f / run))
            x += 1
    assert all(c.denominator == 1 for c in terms.values())
    return {m: int(c) for m, c in terms.items() if c}


@pytest.mark.parametrize("r", range(3, 8))
def test_limit_kr_key_filter_matches_norm_test(r):
    # the integer filter on the result's keys gives what the per-sequence
    # norm test gave; the sum is taken once at cutoff 40 and restricted,
    # since a sequence's total degree is that of its monomial
    full = norm_limit_kr(r, 40)
    for cutoff in range(41):
        expected = {m: c for m, c in full.items() if sum(m) <= cutoff}
        assert limit_kr(r, cutoff).terms == expected


def test_limit_gale_robinson_matches_dp1_run(dp1):
    report = stabilization_run(dp1, (1, 2, 3, 4), 5, 4)
    assert report.all_stabilized
    assert limits_match_up_to_cycle(report, limit_gale_robinson(4, 2, 1, 4)) == 0


def test_dp1_coefficient_basics():
    assert dp1_coefficient(0, 0, 0, 0) == 1
    assert dp1_coefficient(1, 0, 0, 0) == 1
    assert dp1_coefficient(0, 1, 0, 0) == 0
    assert dp1_coefficient(1, 2, 0, 1) == 3
    assert dp1_coefficient(0, 0, 1, 0) == 0  # needs a-c >= 0


def test_dp1_coefficient_many_parts():
    # 1,200 parts: the partitions are walked with an explicit stack, not
    # recursion; the 0-based entry i of w = (0, ..., 0) has the factor 1 - i,
    # so only w = () and w = (0,) are nonzero
    assert dp1_coefficient(1200, 0, 0, 0) == 0
    assert dp1_coefficient(2, 0, 0, 0) == 0


def test_dp1_coefficient_matches_limit():
    lim = limit_gale_robinson(4, 2, 1, 7)
    for (a, b, c, d), coeff in lim.terms.items():
        assert dp1_coefficient(d, c, b, a) == coeff


def test_deformed_r_monomials_distinct_on_green_traces(k2, a12, dp1):
    for q, period in ((k2, 2), (a12, 3), (dp1, 4)):
        seq = tuple(1 + (i % period) for i in range(2 * period))
        tr = trace(q, seq)
        assert all(c == "green" for c in tr.colors)
        assert len(set(tr.r_monomials)) == len(seq)


def test_green_deformed_polynomials(k2, a12):
    for q, period in ((k2, 2), (a12, 3)):
        for reps in (1, 2, 3):
            n = period * reps
            seq = tuple(1 + (i % period) for i in range(n))
            tr = trace(q, seq)
            s_n = deformed_formula(tr, n)
            assert is_polynomial(s_n)[0]


K2 = make_quiver([[0, 2], [-2, 0]])

# every entry point that takes a count (n or cutoff), called with that count
COUNT_GATED = {
    "fpoly_kr": lambda x: fpoly_kr(2, x),
    "fpoly_gale_robinson": lambda x: fpoly_gale_robinson(4, 2, 1, x),
    "fpoly_symmetric": lambda x: fpoly_symmetric(K2, x),
    "limit_a1r": lambda x: limit_a1r(1, x),
    "limit_kr": lambda x: limit_kr(3, x),
    "limit_gale_robinson": lambda x: limit_gale_robinson(4, 2, 1, x),
    "deformed_coefficients": lambda x: deformed_coefficients(trace(K2, (1, 2, 1)), 3, x),
    "stabilization_run": lambda x: stabilization_run(K2, (1, 2), 2, x),
}


@pytest.mark.parametrize("value, message", [
    (2.5, "not an integer"), (2.0, "not an integer"), (True, "not an integer"),
    (-1, "must be nonnegative")])
@pytest.mark.parametrize("name", sorted(COUNT_GATED))
def test_counts_must_be_nonnegative_ints(name, value, message):
    # limit_a1r(1, 2.5) used to return the cutoff-2 answer; others raised bare errors
    with pytest.raises(BadParameters, match=message):
        COUNT_GATED[name](value)


@pytest.mark.parametrize("call", [
    lambda: fpoly_kr(2.0, 3), lambda: limit_kr(3.0, 5), lambda: limit_a1r(1.5, 4),
    lambda: limit_gale_robinson(4, 2.0, 1, 3), lambda: fpoly_gale_robinson(4, 2, True, 2),
    lambda: stabilization_run(K2, (1, 2), 2.5, 3)])
def test_family_parameters_must_be_ints(call):
    # fpoly_kr(2.0, 3) raised a bare AttributeError, limit_kr(3.0, 5) a TypeError
    with pytest.raises(BadParameters, match="integer"):
        call()
