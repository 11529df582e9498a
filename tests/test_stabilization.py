import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clusterforge import (FamilySpec, LaurentPolynomial, SSequence, build_family,
                          build_gale_robinson, deform,
                          dp1_coefficient, fpoly_formula, fpoly_gale_robinson,
                          fpoly_kr, fpoly_recurrence, fpoly_symmetric,
                          fundamentals, green_excess_probe,
                          limit_a1r, limit_gale_robinson, limit_kr,
                          framed_state, limits_match_up_to_cycle, make_quiver,
                          mutate, stabilization_run, trace)
from clusterforge import closedform, stabilization
from clusterforge.closedform import _deformed_sums, deformed_coefficients
from clusterforge.families import _family_sum
from clusterforge.errors import (BadParameters, ConsistencyError, RedStepEncountered,
                                 SignCoherenceViolation)
from clusterforge.intmat import identity, mat_vec
from clusterforge.stabilization import _decomposable, _family_limit
from conftest import random_sequence, random_skew_symmetric
from oracles import QuadraticNumber, labels_after, limit_gale_robinson_per_entry


def P(nvars, terms):
    return LaurentPolynomial(nvars, terms)


def test_deform_trivial_cases():
    one = LaurentPolynomial.one(2)
    assert deform(one, identity(2)) == one
    p = P(2, {(2, 1): 5})
    assert deform(p, ((-1, 0), (0, -1))) == p


def test_deform_rejects_a_c_of_the_wrong_shape():
    # each of these used to return the polynomial 1
    y1 = LaurentPolynomial.variable(1, 1)
    with pytest.raises(ValueError, match="^matrix is not square"):
        deform(1 + y1, ((1, 0),))
    with pytest.raises(ValueError, match="^matrix is not square"):
        deform(LaurentPolynomial.variable(2, 1), ((1,), (0, 1)))
    for f, c in ((1 + y1, identity(2)), (LaurentPolynomial.zero(2), identity(1))):
        with pytest.raises(ValueError, match=r"^C has \d rows, not one per variable of f \(\d\)$"):
            deform(f, c)


def test_deform_k2_example(k2):
    tr = trace(k2, (1, 2, 1))
    s3 = deform(P(2, {(3, 2): 1}), tr.c_mats[3])
    assert s3 == P(2, {(1, 0): 1})


def test_deform_is_monomial_bijection(k2):
    tr = trace(k2, (1, 2, 1))
    f3 = fpoly_recurrence(k2, (1, 2, 1))[-1]
    s3 = deform(f3, tr.c_mats[3])
    assert len(s3.terms) == len(f3.terms)


def test_limits_match_up_to_cycle_compares_within_the_cutoff(a12):
    report = stabilization_run(a12, (1, 2, 3), 6, 6)
    limit = limit_a1r(2, 6)
    shift = limits_match_up_to_cycle(report, limit)
    assert shift is not None
    # terms of the limit past the report's cutoff are not compared
    assert limits_match_up_to_cycle(report, limit_a1r(2, 12)) == shift
    # one coefficient changed: no cyclic shift matches
    exps = max(limit.terms, key=lambda e: (sum(e), e))
    changed = LaurentPolynomial(3, {**limit.terms, exps: limit.terms[exps] + 1})
    assert limits_match_up_to_cycle(report, changed) is None


def test_fundamentals_k2(k2):
    tr = trace(k2, (1, 2, 1))
    entries = fundamentals(tr, 3)
    flags = {e.monomial: e.fundamental for e in entries}
    # r3 = y1^3 y2^2 is not a sum of copies of (1,0) and (2,1)
    assert flags == {(1, 0): True, (2, 1): True, (3, 2): True}
    assert all(e.coefficient_check for e in entries)


def test_fundamentals_detects_products(a2):
    # on A2 with sequence (2,1,2,1) the fourth r-monomial is y1*y2, the
    # product of the two earlier degree-1 monomials
    tr = trace(a2, (2, 1, 2, 1))
    assert tr.r_monomials == ((0, 1), (1, 0), (0, 1), (1, 1))
    entries = fundamentals(tr, 4)
    flags = {e.monomial: e.fundamental for e in entries}
    assert flags == {(0, 1): True, (1, 0): True, (1, 1): False}
    # color counts aggregate per distinct monomial
    by_monomial = {e.monomial: e for e in entries}
    assert (by_monomial[(0, 1)].green, by_monomial[(0, 1)].red) == (1, 1)


def _decomposable_recursive(target, parts) -> bool:
    """Reference: the former recursive walk, one frame per part subtracted."""
    parts = [p for p in set(parts) if any(p) and all(a <= b for a, b in zip(p, target))]
    if not parts:
        return False
    reachable = {}

    def explore(vec, count):
        if count >= 2 and not any(vec):
            return True
        seen = reachable.get(vec)
        if seen is not None and seen <= count:
            return False
        reachable[vec] = count
        for p in parts:
            rest = tuple(a - b for a, b in zip(vec, p))
            if all(x >= 0 for x in rest) and explore(rest, count + 1):
                return True
        return False

    return explore(tuple(target), 0)


@st.composite
def decomposition_cases(draw):
    v = draw(st.integers(1, 3))
    vectors = st.tuples(*[st.integers(0, 9)] * v)
    return draw(vectors), draw(st.lists(vectors, max_size=5))


@given(decomposition_cases())
def test_decomposable_matches_recursive_walk(case):
    target, parts = case
    assert _decomposable(target, parts) == _decomposable_recursive(target, parts)


def test_decomposable_many_parts():
    # thousands of parts in one decomposition: no recursion limit applies
    assert _decomposable((3000, 0), [(1, 0)])
    assert not _decomposable((3001, 0), [(3, 0)])
    assert _decomposable((3001, 1), [(3, 0), (1, 1)])


def test_labels_from_recurrence_match_framed_mutation():
    # the label of vertex k after the sequence is F_i for the last step i at
    # k; the identity on those labels is what fundamentals' point queries
    # on the formula must report, red steps included
    rng = random.Random(37)
    for _ in range(40):
        q = random_skew_symmetric(rng, 3, max_entry=1)
        seq = random_sequence(rng, 3, rng.randint(0, 7))
        state = framed_state(q)
        for k in seq:
            state = mutate(state, k)
        fs = fpoly_recurrence(q, seq)
        assert labels_after(seq, fs, q.v) == list(state.labels)
        tr = trace(q, seq)
        for n in range(len(seq) + 1):
            labels = labels_after(seq[:n], fs, q.v)
            for e in fundamentals(tr, n):
                expected = None
                if e.fundamental:
                    identity_value = tuple(-(e.green - e.red) * x
                                           for x in mat_vec(tr.cinv_mats[n], e.monomial))
                    expected = identity_value == tuple(f.coefficient(e.monomial)
                                                       for f in labels)
                assert e.coefficient_check == expected


def test_green_excess_probe_green_trace(k2):
    tr = trace(k2, (1, 2, 1))
    report = green_excess_probe(tr)
    assert report.conjecture_consistent
    assert all(e.green - e.red >= 1 for e in report.entries)
    assert not report.failed_coefficient_checks


def test_green_excess_probe_past_the_recurrence():
    # kr r=3 at n=7: the labels are point queries on the formula; reading
    # them off the recurrence's F_1..F_7 took about 25 s on a 2-CPU host
    tr = trace(make_quiver([[0, 3], [-3, 0]]), (1, 2, 1, 2, 1, 2, 1))
    report = green_excess_probe(tr)
    assert report.entries
    assert all(e.coefficient_check for e in report.entries)
    assert report.failed_coefficient_checks == ()


def test_fundamentals_and_probe_check_the_step_index(k2):
    # a bool n used to be read as 1
    tr = trace(k2, (1, 2, 1))
    for call in (lambda n: fundamentals(tr, n), lambda n: green_excess_probe(tr, n)):
        for n in (True, 1.0):
            with pytest.raises(TypeError, match="is not an integer"):
                call(n)
        for n in (-1, 4):
            with pytest.raises(ValueError, match="n out of trace range"):
                call(n)


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
        report = green_excess_probe(trace(q, seq))
        assert report.conjecture_consistent
        assert report.failed_coefficient_checks == ()


def test_green_excess_probe_a3_traces():
    q = make_quiver([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
    rng = random.Random(31)
    for _ in range(30):
        seq = random_sequence(rng, 3, 10)
        report = green_excess_probe(trace(q, seq))
        assert report.conjecture_consistent
        assert report.failed_coefficient_checks == ()


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
    assert limits_match_up_to_cycle(report, limit_a1r(2, 6)) == 0


def test_stabilization_verdict_needs_the_last_two_values_equal(a12):
    # y1*y2^2*y3^2 first appears at the last index: one value, no verdict
    report = stabilization_run(a12, (1, 2, 3), 2, 6)
    assert report.histories[(1, 2, 2)] == (0, 2)
    assert report.verdicts[(1, 2, 2)] is None


@pytest.mark.parametrize("period", [(1.9, 2.2, 3.0), (1, 2, "3"), (True, 2, 3)])
def test_stabilization_rejects_non_integer_period(a12, period):
    # no entry is coerced: (1.9, 2.2, 3.0) must not run as the period (1, 2, 3)
    with pytest.raises(BadParameters):
        stabilization_run(a12, period, 2, 3)


def per_index_report(q, period, count, cutoff):
    """Reference: one deformed_coefficients call per inspected index."""
    tr, p = trace(q, period * count), len(period)
    indices = tuple(p * k for k in range(1, count + 1))
    coeffs = [deformed_coefficients(tr, n, cutoff) for n in indices]
    monomials = sorted(set().union(*coeffs), key=lambda m: (sum(m), m))
    histories = {m: tuple(c.get(m, 0) for c in coeffs) for m in monomials}
    verdicts = {}
    for m, hist in histories.items():
        # the first position from which the history is constant, if it is not the last
        first = min(k for k in range(count) if len(set(hist[k:])) == 1)
        verdicts[m] = indices[first] if first < count - 1 else None
    return indices, histories, verdicts


@st.composite
def periodic_runs(draw):
    """(quiver, period, count, cutoff) on acyclic quivers of 2 to 4 vertices.

    The period mutates a drawn subset of the vertices once each, sources
    first: all of them returns the quiver, most proper subsets do not.  The
    count, drawn from 2 to 4, is cut to the periods that stay green; the
    first period is green, as it mutates each vertex at most once.
    """
    v = draw(st.integers(2, 4))
    order = draw(st.permutations(range(1, v + 1)))
    b = [[0] * v for _ in range(v)]
    for i in range(v):
        for j in range(i + 1, v):
            # 2 twice: more quivers of infinite type, whose periods stay green
            x = draw(st.sampled_from((0, 1, 2, 2)))
            b[order[i] - 1][order[j] - 1], b[order[j] - 1][order[i] - 1] = x, -x
    keep = draw(st.lists(st.booleans(), min_size=v, max_size=v))
    period = tuple(k for k, kept in zip(order, keep) if kept) or tuple(order)
    q, count = make_quiver(b), draw(st.integers(2, 4))
    colors = trace(q, period * count).colors
    if "red" in colors:
        count = colors.index("red") // len(period)
    return q, period, count, draw(st.integers(0, 6))


@given(periodic_runs())
def test_stabilization_run_matches_per_index_sums(case):
    # one sum read at every index when the period returns the quiver, one
    # sum per index otherwise: the reports agree with per-index sums either way
    q, period, count, cutoff = case
    expected = per_index_report(q, period, count, cutoff)
    report = stabilization_run(q, period, count, cutoff)
    assert (report.indices, report.histories, report.verdicts) == expected
    assert list(report.histories) == list(expected[1])


def test_stabilization_run_sums_once_only_when_the_period_returns_the_quiver(
        a12, dp1, monkeypatch):
    real_sum, calls = closedform._sequence_sum, []

    def sequence_sum(*args, **kwargs):
        calls.append(args)
        return real_sum(*args, **kwargs)

    monkeypatch.setattr(closedform, "_sequence_sum", sequence_sum)
    # a1r r=2: (1, 2, 3) returns the quiver, so six indices take one sum
    stabilization_run(a12, (1, 2, 3), 6, 6)
    assert len(calls) == 1
    # dp1: (3, 4, 2) does not, and one sum at n = 6 gives other histories at n = 3
    calls.clear()
    tr = trace(dp1, (3, 4, 2) * 2)
    assert tr.b_mats[3] != tr.b_mats[0]
    report = stabilization_run(dp1, (3, 4, 2), 2, 4)
    assert len(calls) == 2
    assert [report.histories, report.verdicts] == list(per_index_report(dp1, (3, 4, 2), 2, 4)[1:])
    assert _deformed_sums(tr, 6, 4, (3, 6))[0] != deformed_coefficients(tr, 3, 4)


def test_stabilization_run_one_sum_errors_name_the_step_from_the_last_index(k2, monkeypatch):
    # r_1 and r_8 zeroed: the one sum at n = 8 meets step 8 first, and the
    # run raises that error as it is
    def broken_trace(q, seq):
        tr = trace(q, seq)
        return replace(tr, r_monomials=((0, 0),) + tr.r_monomials[1:-1] + ((0, 0),))

    monkeypatch.setattr(stabilization, "trace", broken_trace)
    with pytest.raises(SignCoherenceViolation,
                       match=r"^deformed r-monomial of step 8 \(vertex 2\) is not positive: "
                             r"\(0, 0\)$"):
        stabilization_run(k2, (1, 2), 4, 5)
    with pytest.raises(RedStepEncountered, match=r"^step 2 \(vertex 1\) is red$"):
        stabilization_run(k2, (1, 1, 2), 2, 4)


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


@pytest.mark.parametrize("r", range(1, 6))
def test_limit_a1r_is_the_family_sum_over_windows(r):
    # the hand-expanded closed form equals the one kernel's sum over the
    # windows of the cycle's own sequence, term for term
    q = build_family(FamilySpec.of("a1r", r=r))
    ss = SSequence.from_quiver(q)
    for cutoff in range(15):
        assert _family_limit(q.b, ss, cutoff) == limit_a1r(r, cutoff)


@pytest.mark.parametrize("spec, limit, shift", [
    (FamilySpec.of("a1r", r=2), lambda c: limit_a1r(2, c), 0),
    (FamilySpec.of("dp1"), lambda c: limit_gale_robinson(4, 2, 1, c), 0),
    (FamilySpec.of("gr", v=7, r=2, t=3), lambda c: limit_gale_robinson(7, 2, 3, c), 0),
    (FamilySpec.of("gr", v=4, r=1, t=2), lambda c: limit_gale_robinson(4, 1, 2, c), 0),
    # r = 2 is limit_a1r(1)'s frame; from r = 3 on, y1 and y2 trade places
    (FamilySpec.of("kr", r=2), lambda c: limit_kr(2, c), 0),
    (FamilySpec.of("kr", r=3), lambda c: limit_kr(3, c), 1),
    (FamilySpec.of("kr", r=5), lambda c: limit_kr(5, c), 1),
])
def test_each_limit_has_a_fixed_variable_frame(spec, limit, shift):
    # the exact cyclic shift from a run along (1..v) to the limit, not just some shift
    q = build_family(spec)
    for cutoff in (6, 10, 14):
        report = stabilization_run(q, tuple(range(1, q.v + 1)), 10, cutoff)
        assert limits_match_up_to_cycle(report, limit(cutoff)) == shift


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
    assert limits_match_up_to_cycle(report, limit_kr(3, 6)) == 1


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


GALE_ROBINSON_UP_TO_7 = [(v, r, t) for v in range(2, 8) for r in range(1, v)
                         for t in range(1, v) if t not in (r, v - r)]


@pytest.mark.parametrize("v, r, t", GALE_ROBINSON_UP_TO_7)
def test_limit_gale_robinson_windows_match_per_entry_reads(v, r, t):
    # rho(w) is a window of one read of s; the reference reads every entry
    # alone, up to its w_max; 14 is the benchmark's largest cutoff
    for cutoff in range(15):
        lim = limit_gale_robinson(v, r, t, cutoff)
        expected = limit_gale_robinson_per_entry(v, r, t, cutoff)
        assert lim == expected and list(lim.terms) == list(expected.terms)


@pytest.mark.parametrize("v, r, t", GALE_ROBINSON_UP_TO_7)
def test_limit_gale_robinson_sums_exactly_the_windows_within_the_cutoff(monkeypatch, v, r, t):
    # window degrees never decrease, so the sum gets the prefix of degree <= cutoff
    # and nothing past it; the reference windows run to the old bound w_max
    sums = []

    def recorded(b, ss, steps, bound, cap=None):
        sums.append(steps)
        return _family_sum(b, ss, steps, bound, cap)

    monkeypatch.setattr(stabilization, "_family_sum", recorded)
    ss = SSequence.gale_robinson(v, r, t)
    for cutoff in range(15):
        limit_gale_robinson(v, r, t, cutoff)
        w_max = r * (cutoff * (v - r) + 1) + v
        windows = [tuple(ss.s(w - v + i) for i in range(1, v + 1)) for w in range(w_max + 1)]
        assert sums.pop() == [rho for rho in windows if sum(rho) <= cutoff]


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


def test_dp1_coefficient_stops_a_sequence_at_its_first_zero_weight(monkeypatch):
    # w = (0, ..., 0) has weight 0 from its second entry on, and a zero weight
    # stays zero, so the 400 entries need not each re-sum the earlier ones
    exact, reads = SSequence.s, []

    def counted(self, i):
        reads.append(i)
        return exact(self, i)

    monkeypatch.setattr(SSequence, "s", counted)
    assert dp1_coefficient(400, 0, 0, 0) == 0
    assert len(reads) < 100


def test_dp1_coefficient_matches_limit():
    # cutoff 14 (53 monomials) has runs long enough that each wrong run
    # weight shows: no division by the run position is off on 8 monomials,
    # dividing by position + 1 on 52, a position counted from the sequence
    # start on 45
    lim = limit_gale_robinson(4, 2, 1, 14)
    assert len(lim.terms) == 53
    for (a, b, c, d), coeff in lim.terms.items():
        assert dp1_coefficient(d, c, b, a) == coeff


@pytest.mark.parametrize("bad", [True, 2.0, None])
@pytest.mark.parametrize("slot", range(4))
def test_dp1_coefficient_rejects_exponents_that_are_not_ints(bad, slot):
    # a bool read as 0 or 1, and a float reached range() as a bare TypeError
    exps = [1, 2, 0, 1]
    exps[slot] = bad
    with pytest.raises(TypeError, match="is not an integer"):
        dp1_coefficient(*exps)


def test_dp1_coefficient_checks_its_diagonal(monkeypatch):
    # the run weights are exact only when equal entries pair to -1; a1r(1)
    # has s_0 = 0, so its diagonal -s_0 is 0
    monkeypatch.setattr(SSequence, "gale_robinson", lambda v, r, t: SSequence.a1r(1))
    with pytest.raises(ConsistencyError, match="diagonal pair term is 0, not -1"):
        dp1_coefficient(0, 0, 0, 0)


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
            s_n = deform(fpoly_formula(tr, n), tr.c_mats[n])
            assert s_n.is_polynomial()


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
