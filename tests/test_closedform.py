import random
from dataclasses import replace
from fractions import Fraction

from itertools import product
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import clusterforge.closedform
from clusterforge import (LaurentPolynomial, canonical_sequence, coeff_a, coeff_b,
                          coefficient_of, deform, degree_bounds, fpoly_formula,
                          fpoly_product_form, fpoly_recurrence, intmat, make_quiver, trace)
from clusterforge.closedform import (_binomial_series, _plan, _sequence_sum, _trace_candidates,
                                     deform_matrix, deformed_coefficients)
from clusterforge.errors import BadParameters, RedStepEncountered, SignCoherenceViolation
from clusterforge.laurent import _Packing
from conftest import random_sequence, random_skew_symmetric, truncate
from oracles import enumerate_sequences, w_value

GOLDEN_F3 = {(0, 0): 1, (1, 0): 3, (2, 0): 3, (3, 0): 1, (2, 1): 2, (3, 1): 2,
             (3, 2): 1}


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
    # every factor is 1: tail 1, every pair term off the diagonal 0
    one = lambda c: (1, (0,) * 2)  # noqa: E731
    with pytest.raises(ValueError):
        _sequence_sum(_plan([(1, 0), (0, 0)], one, (3, 3)), (3, 3))
    with pytest.raises(ValueError):
        _sequence_sum(_plan([(2, -1)], one, (3, 3)), (3, 3))


def test_plan_factors_each_kept_step_once_in_candidate_order():
    # (3, 0) is past the span and (2, 2) past the cap, so neither is
    # factored; a bad step anywhere raises before the first factor call
    calls = []

    def factor(c):
        calls.append(c)
        return -c, (0, c)

    steps = [(1, 0), (3, 0), (0, 2), (1, 1), (2, 2), (0, 1)]
    layout, cap, stages = _plan(steps, factor, (2, 2), cap=3)
    assert cap == 3
    assert calls == [0, 2, 3, 5]
    assert [(c, tail) for c, _, _, tail, _ in stages] == [(0, 0), (2, -2), (3, -3), (5, -5)]
    assert [reads for *_, reads in stages][1:] == [
        ((layout.shifts[1], layout.masks[1], c),) for c in (2, 3, 5)]
    assert stages[0][4] == ()
    calls.clear()
    _, cap, stages = _plan(steps, factor, (2, 2))
    assert cap == 4  # sum(span)
    assert [stage[0] for stage in stages] == [0, 2, 3, 4, 5]
    assert calls == [0, 2, 3, 4, 5]
    calls.clear()
    for bad in ([(1, 0), (0, 0)], [(1, 0), (1, 1), (2, -1)], [(1, 0), (9, 9), (0, 0)]):
        with pytest.raises(ValueError):
            _plan(bad, factor, (2, 2), cap=3)
    assert calls == []


def test_sequence_sum_counts_multisets():
    # candidate c has tail f_c and no pair term but the diagonal -1, so the
    # run of a copies of candidate 0 and b of candidate 1 weighs phi * W =
    # C(f_0, a) * C(f_1, b); C(3, 4) = 0 ends the runs of candidate 0, and
    # C(-2, b) = (-1)^b (b + 1) never vanishes
    tails = (3, -2)
    steps, factor = [(1, 0), (0, 1)], lambda c: (tails[c], (0,) * 2)

    def binom(f, m):
        return prod(f - j for j in range(m)) // prod(range(1, m + 1))

    def box(cap):
        return {(a, b): binom(3, a) * binom(-2, b)
                for a in range(4) for b in range(4) if a + b <= cap}

    assert box(7)[2, 3] == -12
    assert _sequence_sum(_plan(steps, factor, (4, 3)), (4, 3)).terms == box(7)
    # the kernel sums within the smaller of the plan's cap and sum(bound)
    assert _sequence_sum(_plan(steps, factor, (4, 3), cap=2), (4, 3)).terms == box(2)
    assert _sequence_sum(_plan(steps, factor, (4, 3), cap=2), (2, 3)).terms == {
        e: c for e, c in box(2).items() if e[0] <= 2}
    assert _sequence_sum(_plan(steps, factor, (4, 3)), (1, 1)).terms == {
        e: c for e, c in box(2).items() if max(e) <= 1}
    assert _sequence_sum(_plan(steps, factor, (2, 3)), (2, 3), point=True) == -12
    assert _sequence_sum(_plan(steps, factor, (4, 1)), (4, 1), point=True) == 0
    assert _sequence_sum(_plan(steps, factor, (0, 0)), (0, 0), point=True) == 1


def test_point_query_drops_states_that_cannot_reach_the_target():
    # y1*y2*y3 from the steps (1,0,1), (1,0,0), (0,1,0) is only candidates 0
    # and 2.  The empty state still waits at stage 1 and fits step (1,0,0),
    # but no candidate from 1 on raises y3, so it is dropped there, and
    # candidate 1's tail, which only that state would read, is never read.
    class Unread:
        def __add__(self, other):
            raise AssertionError("stage 1 ran for a state that cannot reach the target")

    def factor(c):
        return Unread() if c == 1 else 1, (0,) * 3

    steps = [(1, 0, 1), (1, 0, 0), (0, 1, 0)]
    assert _sequence_sum(_plan(steps, factor, (1, 1, 1)), (1, 1, 1), point=True) == 1


def test_pruned_point_query_keeps_its_coefficient(dp1):
    # dP1 along 1,2,3,4,1,2,3,4: the query on y1^7 y2^8 y3^5 y4^4 expands 29
    # states where the unpruned kernel expands 177, and still gives 18
    tr = trace(dp1, canonical_sequence(4, 8))
    monomial = (7, 8, 5, 4)
    assert coefficient_of(tr, 8, monomial) == fpoly_formula(tr, 8).coefficient(monomial) == 18


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
    # F_0 = 1: no steps, only the empty sequence
    assert coefficient_of(tr, 0, (0, 0)) == 1
    assert coefficient_of(tr, 0, (1, 0)) == 0
    # beyond the degree bound (3, 2) the answer is 0 with no sum run
    assert coefficient_of(tr, 3, (4, 2)) == 0
    assert coefficient_of(tr, 3, (5, 3)) == 0


@pytest.mark.parametrize("monomial", [(4, 2), (5, 3)])
def test_sequence_sum_cancels_exactly_past_the_support(k2, monomial):
    # the sum itself, run on a box past F_3's support, lands on 0
    steps, factor = _trace_candidates(trace(k2, (1, 2, 1)), 3)
    assert _sequence_sum(_plan(steps, factor, monomial), monomial, point=True) == 0


def test_coefficient_of_outside_the_box_runs_no_sum(k2, monkeypatch):
    # past F_n's degree bound or below 0, the answer is 0 before any sum
    def no_sum(*args, **kwargs):
        raise AssertionError("_sequence_sum ran")

    monkeypatch.setattr(clusterforge.closedform, "_sequence_sum", no_sum)
    tr = trace(k2, (1, 2) * 20)
    assert coefficient_of(tr, 40, (400, 400)) == 0
    assert coefficient_of(tr, 40, (-1, 1)) == 0
    assert coefficient_of(trace(k2, (1, 2, 1)), 3, (-1, 1)) == 0


def test_coefficient_of_validates_n(k2):
    tr = trace(k2, (1, 2, 1))
    for n in (-3, -1, 4):
        with pytest.raises(ValueError, match="n out of trace range"):
            coefficient_of(tr, n, (0, 0))


def test_step_index_is_checked_by_every_caller(k2):
    # a bool n used to be read as 0 or 1, and deform_matrix(tr, -1) gave -C_3^{-1}
    tr = trace(k2, (1, 2, 1))
    callers = {
        "fpoly_formula": lambda n: fpoly_formula(tr, n),
        "fpoly_product_form": lambda n: fpoly_product_form(tr, n),
        "coefficient_of": lambda n: coefficient_of(tr, n, (1, 0)),
        "w_value": lambda n: w_value(tr, n, ()),
        "enumerate_sequences": lambda n: list(enumerate_sequences(tr, n, (1, 1))),
        "deform_matrix": lambda n: deform_matrix(tr, n),
        "deformed_coefficients": lambda n: deformed_coefficients(tr, n, 2),
        "degree_bound": tr.degree_bound,
    }
    for call in callers.values():
        for n in (True, False, 1.0, 2.5, "1"):
            with pytest.raises(TypeError, match="is not an integer"):
                call(n)
        for n in (-1, 4):
            with pytest.raises(ValueError, match="n out of trace range"):
                call(n)
    with pytest.raises(ValueError, match="n out of trace range"):
        deformed_coefficients(tr, 0, 2)
    assert deform_matrix(tr, 0) == ((-1, 0), (0, -1))
    assert tr.degree_bound(0) == (0, 0)


def test_coefficient_of_rejects_non_integer_exponents(k2):
    # a float exponent used to fail with AttributeError, and True read as 1
    tr = trace(k2, (1, 2, 1))
    for monomial in ((1.0, 0), (True, 0), (0, 2.5)):
        with pytest.raises(TypeError, match="is not an integer"):
            coefficient_of(tr, 3, monomial)


def test_deformed_coefficients_failure_names_the_step(k2):
    # with C_3^{-1} replaced by I, -C_3^{-1} sends each r-monomial to its negative
    tr = trace(k2, (1, 2, 1))
    broken = replace(tr, cinv_mats=tr.cinv_mats[:3] + (((1, 0), (0, 1)),))
    with pytest.raises(SignCoherenceViolation,
                       match=r"r-monomial of step 3 \(vertex 1\) is not positive: \(-3, -2\)"):
        deformed_coefficients(broken, 3, 4)


def test_deformed_coefficients_checks_steps_above_the_cutoff(k2):
    # step 1's deformed r-monomial, (-1, 9), has degree 8 > 4 and never reaches
    # the sum, yet it is checked: -C_3 (-1, 9) = (-39, -29)
    tr = trace(k2, (1, 2, 1))
    broken = replace(tr, r_monomials=((-39, -29),) + tr.r_monomials[1:])
    with pytest.raises(SignCoherenceViolation,
                       match=r"r-monomial of step 1 \(vertex 1\) is not positive: \(-1, 9\)"):
        deformed_coefficients(broken, 3, 4)


def test_deformed_coefficients_rejects_a_zero_column(k2):
    tr = trace(k2, (1, 2, 1))
    zero = replace(tr, r_monomials=(tr.r(1), (0, 0), tr.r(3)))
    with pytest.raises(SignCoherenceViolation,
                       match=r"r-monomial of step 2 \(vertex 2\) is not positive: \(0, 0\)"):
        deformed_coefficients(zero, 3, 4)
    # with steps 1 and 2 both off, the scan from step n down names step 2 first
    both = replace(zero, r_monomials=((-39, -29),) + zero.r_monomials[1:])
    with pytest.raises(SignCoherenceViolation, match=r"step 2 \(vertex 2\)"):
        deformed_coefficients(both, 3, 4)


def test_deformed_coefficients_names_the_first_red_step(k2):
    # the error and text of stabilization_run; it used to be a bare ValueError
    tr = trace(k2, (1, 1, 2))
    assert deformed_coefficients(tr, 1, 3) == {(0, 0): 1, (1, 0): 1}
    for n in (2, 3):
        with pytest.raises(RedStepEncountered, match=r"^step 2 \(vertex 1\) is red$"):
            deformed_coefficients(tr, n, 3)
    assert not issubclass(RedStepEncountered, ValueError)


def test_deformed_coefficients_is_one_product_and_a_filtered_sum(a12, monkeypatch):
    # per call: one mat_mul, no mat_vec, and every deformed step goes to one
    # plan with the cutoff as its cap, which factors exactly the steps of
    # degree <= cutoff, in order, each with the factors of its own step:
    # F_n's tail, and F_n's omega carried into deformed space by -C_n^T
    tr, cutoff = trace(a12, (1, 2, 3) * 4), 5
    expected = {}
    for n in range(1, tr.n + 1):
        rhos = [intmat.mat_vec(deform_matrix(tr, n), tr.r(n - w)) for w in range(n)]
        kept = [w for w, rho in enumerate(rhos) if sum(rho) <= cutoff]
        frame = intmat.neg(intmat.transpose(tr.c_mats[n]))
        factor = _trace_candidates(tr, n)[1]
        expected[n] = kept, rhos, [(t, list(intmat.mat_vec(frame, omega)))
                                   for t, omega in map(factor, kept)]
    calls = []
    real_mat_mul, real_mat_vec = intmat.mat_mul, intmat.mat_vec
    real_plan = clusterforge.closedform._plan

    def mat_mul(a, b):
        calls[-1]["mat_mul"] += 1
        return real_mat_mul(a, b)

    def mat_vec(a, v):
        calls[-1]["mat_vec"] += 1
        return real_mat_vec(a, v)

    def plan(steps, factor, *args):
        calls[-1]["steps"].append(list(steps))
        calls[-1]["args"] = args

        def spy(c):
            calls[-1]["factored"].append(c)
            calls[-1]["factors"].append(factor(c))
            return calls[-1]["factors"][-1]

        return real_plan(steps, spy, *args)

    monkeypatch.setattr(intmat, "mat_mul", mat_mul)
    monkeypatch.setattr(intmat, "mat_vec", mat_vec)
    monkeypatch.setattr(clusterforge.closedform, "_plan", plan)
    dropped = 0
    for n in range(1, tr.n + 1):
        calls.append({"mat_mul": 0, "mat_vec": 0, "steps": [], "factored": [], "factors": []})
        deformed_coefficients(tr, n, cutoff)
        kept, rhos, factors = expected[n]
        assert (calls[-1]["mat_mul"], calls[-1]["mat_vec"]) == (1, 0)
        assert calls[-1]["steps"] == [rhos]
        assert calls[-1]["args"] == ((cutoff,) * tr.v, cutoff)
        assert calls[-1]["factored"] == kept
        assert calls[-1]["factors"] == factors
        dropped += n - len(kept)
    assert dropped > 0  # some steps did not fit the cutoff


def test_point_queries_on_one_trace_read_each_n_its_own_plan(a12):
    # every box point of every F_n, n interleaved, on one trace whose plans
    # fill up as it goes: half of the formulas run before the queries and
    # half between two query rounds; a plan shared across n answers wrong
    seq = (1, 2, 3) * 3
    tr = trace(a12, seq)
    expected = [fpoly_formula(trace(a12, seq), n) for n in range(len(seq) + 1)]
    boxes = [list(product(*(range(x + 1) for x in tr.degree_bound(n))))
             for n in range(len(seq) + 1)]
    queries = [(n, box[j]) for j in range(max(map(len, boxes)))
               for n, box in enumerate(boxes) if j < len(box)]
    for n in range(0, len(seq) + 1, 2):
        assert fpoly_formula(tr, n) == expected[n]
    for n, m in queries:
        assert coefficient_of(tr, n, m) == expected[n].coefficient(m), (n, m)
    for n in range(1, len(seq) + 1, 2):
        assert fpoly_formula(tr, n) == expected[n]
    for n, m in queries[::-1]:
        assert coefficient_of(tr, n, m) == expected[n].coefficient(m), (n, m)
    assert sorted(tr._plans) == list(range(len(seq) + 1))


def test_a_planned_step_still_rejects_a_step_that_is_not_an_int(k2):
    # True == 1 as a dict key: the plan of n = 1 must not answer for n = True
    tr = trace(k2, (1, 2, 1))
    assert coefficient_of(tr, 1, (1, 0)) == 1
    assert 1 in tr._plans
    for n in (True, 1.0):
        with pytest.raises(TypeError, match="is not an integer"):
            coefficient_of(tr, n, (1, 0))
        with pytest.raises(TypeError, match="is not an integer"):
            fpoly_formula(tr, n)


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
    tr = trace(k2, (1, 2, 1))
    assert fpoly_product_form(tr, 0) == LaurentPolynomial.one(2)
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
    layout = _Packing(bound)
    result = _binomial_series(layout, [layout.pack_within((p - 1).terms)], e)
    assert all(result.values())
    assert layout.poly(result, (0,) * p.nvars) == _invert_then_power(p, e, bound)


def test_binomial_series_shares_powers():
    # one list of powers of x on one base serves every exponent, in any order,
    # and each result equals the series from a fresh list
    y1, y2 = LaurentPolynomial.variable(2, 1), LaurentPolynomial.variable(2, 2)
    p = 1 + 2 * y1 + y1 * y2 - y2 * y2
    bound = (5, 4)
    layout = _Packing(bound)
    x = layout.pack_within((p - 1).terms)
    powers = [x]
    sizes = []
    for e in (3, -2, 5, -4):
        shared = _binomial_series(layout, powers, e)
        assert shared == _binomial_series(layout, [x], e)
        assert layout.poly(shared, (0, 0)) == _invert_then_power(p, e, bound)
        sizes.append(len(powers))
    for k, power in enumerate(powers, start=1):
        assert layout.poly(power, (0, 0)) == truncate((p - 1) ** k, bound)
    # 3 and 5 need x^3 and x^5; a negative exponent runs to the first empty power
    assert sizes[0] == 3
    assert sizes == sorted(sizes) and not powers[-1]


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


def test_deformed_golden_s3(k2):
    tr = trace(k2, (1, 2, 1))
    s3 = deform(fpoly_formula(tr, 3), tr.c_mats[3])
    assert s3 == LaurentPolynomial(2, {
        (0, 0): 1, (1, 0): 1, (2, 1): 2, (3, 2): 3, (5, 3): 2, (6, 4): 3,
        (9, 6): 1,
    })


def test_deformed_low_terms_approach_a1r_limit(a12):
    # by n = 9 the total-degree <= 4 coefficients agree with the closed form
    from clusterforge import limit_a1r

    seq = tuple(1 + (i % 3) for i in range(9))
    tr = trace(a12, seq)
    s9 = deform(fpoly_formula(tr, 9), tr.c_mats[9])
    lim = limit_a1r(2, 4)
    for exps, coeff in lim.terms.items():
        assert s9.coefficient(exps) == coeff
    for exps, coeff in s9.terms.items():
        if sum(exps) <= 4:
            assert lim.coefficient(exps) == coeff


def test_deformed_coefficients_match_full_deformation(a12, dp1):
    from clusterforge.closedform import deformed_coefficients

    # b23 is skew-symmetrizable, d = (3, 2): C_6 differs from D_6 and from C_6^T
    b23 = make_quiver([[0, 2], [-3, 0]])
    for q, period, n, cutoff in ((a12, 3, 6, 6), (dp1, 4, 8, 4), (b23, 2, 6, 8)):
        seq = tuple(1 + (i % period) for i in range(n))
        tr = trace(q, seq)
        full = deform(fpoly_formula(tr, n), tr.c_mats[n])
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
    """A skew-symmetrizable quiver, v <= 4, and a sequence of length <= 7.

    b_ij = x d_j and b_ji = -x d_i for a symmetrizer d in {1, 2, 3}^v, so
    d_i b_ij = -d_j b_ji; d = (1, ..., 1) gives the skew-symmetric ones.
    """
    v = draw(st.integers(2, 4))
    d = draw(st.lists(st.integers(1, 3), min_size=v, max_size=v))
    b = [[0] * v for _ in range(v)]
    for i in range(v):
        for j in range(i + 1, v):
            x = draw(st.sampled_from((-2, -1, 1, 2, 0)))
            b[i][j], b[j][i] = x * d[j], -x * d[i]
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
