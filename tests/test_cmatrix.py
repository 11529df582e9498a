import copy
import dataclasses
import random
import weakref
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterforge import (FamilySpec, build_family, build_gale_robinson, c_between,
                          check_sign_coherence, coeff_a, coeff_b, fpoly_recurrence,
                          framed_state, make_quiver, mutate, step_matrix, trace)
from clusterforge import closedform, cmatrix
from clusterforge.cmatrix import MutationTrace, pair_term
from clusterforge.errors import ConsistencyError, IndexOrder, NotSkewSymmetrizable
from clusterforge.intmat import identity, mat_mul
from clusterforge.quiver import GeneralizedQuiver, mutate_c
from conftest import (random_sequence, random_skew_symmetric, reference_mutate_b,
                      reference_mutate_c, scaled_skew_symmetric)
from oracles import degree_bound_walk, reference_trace


def test_step_matrix_green_odd(k2):
    assert step_matrix(k2.b, 1, "a", "green") == ((-1, 2), (0, 1))


def test_step_matrix_even_state(k2):
    b = mutate(framed_state(k2), 1).quiver.b
    assert step_matrix(b, 2, "a", "green") == ((1, 0), (2, -1))
    # the red matrix differs from the identity only in row 2; with no
    # incoming arrows at vertex 2 its off-diagonal row is zero
    assert step_matrix(b, 2, "a", "red") == ((1, 0), (0, -1))


def test_step_matrix_isolated_vertex():
    q = make_quiver([[0, 0], [0, 0]])
    assert step_matrix(q.b, 2, "e", "green") == ((1, 0), (0, -1))


def test_step_matrix_rejects_a_bad_kind_or_variant(k2):
    with pytest.raises(ValueError, match="kind must be 'a' or 'e'"):
        step_matrix(k2.b, 1, "c", "green")
    with pytest.raises(ValueError, match="variant must be 'green' or 'red'"):
        step_matrix(k2.b, 1, "a", "blue")


def test_step_matrices_are_involutions():
    rng = random.Random(5)
    for _ in range(20):
        q = random_skew_symmetric(rng, 3)
        for k in range(1, 4):
            for kind in ("a", "e"):
                for variant in ("green", "red"):
                    m = step_matrix(q.b, k, kind, variant)
                    assert mat_mul(m, m) == identity(3)


def test_a_equals_e_for_skew_symmetric(k2, a3_path):
    for q in (k2, a3_path):
        tr = trace(q, tuple(1 + (i % q.v) for i in range(6)))
        for b, k, color in zip(tr.b_mats, tr.seq, tr.colors):
            assert step_matrix(b, k, "a", color) == step_matrix(b, k, "e", color)
        assert all(c_between(tr, 0, i, "d") == tr.c_mats[i] for i in range(tr.n + 1))


def test_trace_k2_golden(k2):
    tr = trace(k2, (1, 2, 1))
    assert tr.colors == ("green", "green", "green")
    assert tr.r_monomials == ((1, 0), (2, 1), (3, 2))
    assert tr.c_mats[3] == ((-3, 4), (-2, 3))


def test_trace_empty(k2):
    tr = trace(k2, ())
    assert tr.c_mats == (identity(2),)
    assert c_between(tr, 0, 0, "d") == identity(2)
    assert tr.r_monomials == ()


def test_c_between(k2):
    tr = trace(k2, (1, 2, 1))
    assert c_between(tr, 2, 2) == identity(2)
    assert c_between(tr, 0, 3) == tr.c_mats[3]
    # inverse of the between-step matrix: C_3^{-1} C_1
    assert c_between(tr, 3, 1) == ((3, -2), (2, -1))


def test_c_between_rejects_a_bad_kind(k2):
    with pytest.raises(ValueError, match="kind must be 'c' or 'd'"):
        c_between(trace(k2, (1, 2, 1)), 0, 3, "a")


def test_c_between_on_a_quiver_with_no_vertices():
    # the product used to read the width of the right operand's first row
    tr = trace(make_quiver([]), ())
    assert c_between(tr, 0, 0) == c_between(tr, 0, 0, "d") == ()


def test_c_between_checks_both_indices(k2):
    tr = trace(k2, (1, 2, 1))
    for m, n in ((True, 3), (1, False), (1.0, 3), (1, 3.0)):
        with pytest.raises(TypeError, match="is not an integer"):
            c_between(tr, m, n)
    for m, n in ((-1, 3), (0, 4)):
        with pytest.raises(ValueError, match="out of trace range"):
            c_between(tr, m, n)


def test_c_between_d_kind(b21):
    tr = trace(b21, (1, 2, 1))
    # D_{1,3} = E_2 E_3, and the (m, n) and (n, m) matrices invert each other
    e2, e3 = (step_matrix(tr.b_mats[i - 1], tr.vertex(i), "e", tr.color(i)) for i in (2, 3))
    assert c_between(tr, 1, 3, "d") == mat_mul(e2, e3)
    assert mat_mul(c_between(tr, 1, 3, "d"), c_between(tr, 3, 1, "d")) == identity(2)


def test_coeff_values_k2(k2):
    tr = trace(k2, (1, 2, 1))
    assert (coeff_a(tr, 1, 2), coeff_a(tr, 1, 3), coeff_a(tr, 2, 3)) == (2, 3, 2)
    assert (coeff_b(tr, 1, 2), coeff_b(tr, 2, 3)) == (0, 0)
    assert all(coeff_a(tr, i, i) == 1 for i in (1, 2, 3))
    assert all(coeff_b(tr, i, i) == 0 for i in (1, 2, 3))


def test_coeff_b13_forced_by_vanishing(k2):
    # the y1^4 y2^2 coefficient of F_3 is zero, and its only contributing
    # sequences are (1,3) and (2,2); that forces b(1,3) = -1
    tr = trace(k2, (1, 2, 1))
    assert coeff_b(tr, 1, 3) == -1


def test_pair_indices_and_vertices_must_be_ints(k2):
    # True used to pass as step or vertex 1, and a float failed deep inside a tuple index
    tr = trace(k2, (1, 2, 1))
    for f in (coeff_a, coeff_b, pair_term):
        for i, j in ((True, 2), (1, 2.0), (1.0, 3), (1, False)):
            with pytest.raises(TypeError, match=r"^[ij] .* is not an integer$"):
                f(tr, i, j)
        with pytest.raises(ValueError, match="j out of trace range"):
            f(tr, 1, 4)
    for vertex in (True, 1.0):
        with pytest.raises(TypeError, match="vertex .* is not an integer"):
            step_matrix(k2.b, vertex, "a", "green")


def test_step_methods_check_their_step(k2):
    # tr.r(0) used to read r_2 and tr.color(-1) step 1's color; tr.r(3) was a bare IndexError
    tr = trace(k2, (1, 2))
    for method in (tr.vertex, tr.r, tr.color):
        for i in (0, -1, 3):
            with pytest.raises(ValueError, match=rf"^i out of trace range: {i} is not in 1\.\.2$"):
                method(i)
        for i in (True, 1.0):
            with pytest.raises(TypeError, match=rf"^i {i!r} is not an integer$"):
                method(i)
    assert [(tr.vertex(i), tr.r(i), tr.color(i)) for i in (1, 2)] == [
        (1, (1, 0), "green"), (2, (2, 1), "green")]


def test_d_matrices_are_the_c_matrices_on_skew_symmetric_quivers(k2, g723):
    for q in (k2, g723):
        tr = trace(q, tuple(1 + (i % q.v) for i in range(2 * q.v)))
        for i in range(tr.n + 1):
            assert c_between(tr, 0, i, "d") == tr.c_mats[i]
            assert c_between(tr, i, 0, "d") == tr.cinv_mats[i]


def test_trace_rejects_a_symmetrizer_that_does_not_symmetrize():
    # D is read off C through d, so a wrong d must not give a wrong D
    for d in ((1, 1), (1, 2), (2,), (0, 0), (2.0, 1.0)):
        with pytest.raises(NotSkewSymmetrizable):
            trace(GeneralizedQuiver(((0, 1), (-2, 0)), d), (1,))


def test_coeff_index_order(k2):
    tr = trace(k2, (1, 2, 1))
    with pytest.raises(IndexOrder):
        coeff_a(tr, 3, 1)
    with pytest.raises(IndexOrder):
        coeff_b(tr, 2, 1)


def test_delta_signs(k2):
    # the paper's sign delta(0, i) is -1 at a green step and +1 at a red one:
    # step i is red exactly when column v_i of C_i is nonnegative
    sk3 = make_quiver([[0, 0, -2], [0, 0, -2], [1, 1, 0]])
    traces = (trace(k2, (1, 2, 1)), trace(sk3, (1, 3, 2, 1, 2, 1, 2)))
    assert [tr.colors.count("red") for tr in traces] == [0, 4]
    for tr in traces:
        for i in range(1, tr.n + 1):
            col = [row[tr.vertex(i) - 1] for row in tr.c_mats[i]]
            assert (tr.color(i) == "red") == all(x >= 0 for x in col)


def test_sign_coherence_report(k2, dp1):
    assert check_sign_coherence(trace(k2, (1, 2, 1))).ok
    assert check_sign_coherence(trace(k2, ())).ok
    assert check_sign_coherence(trace(dp1, tuple(1 + (i % 4) for i in range(20)))).ok


def test_sign_coherence_report_names_each_violation(k2):
    # C_0 has a mixed-sign column 2; C_1 a zero column 1 and determinant 0
    tr = trace(k2, (1,))
    bad = dataclasses.replace(tr, c_mats=(((1, -1), (0, 1)), ((0, 2), (0, 1))))
    report = check_sign_coherence(bad)
    assert not report.ok
    assert report.violations == ("C_0 column 2 is mixed-sign", "C_1 column 1 is zero",
                                 "det C_1 is 0, not -1")
    # C_1 with its columns swapped is sign-coherent with det +1, a unit but
    # not the (-1)^1 that one step matrix gives
    swapped = tuple(row[::-1] for row in tr.c_mats[1])
    report = check_sign_coherence(dataclasses.replace(tr, c_mats=(tr.c_mats[0], swapped)))
    assert report.violations == ("det C_1 is 1, not -1",)


def test_trace_matches_simulation_on_random_cases():
    rng = random.Random(17)
    for _ in range(60):
        q = random_skew_symmetric(rng, rng.randint(2, 4))
        seq = random_sequence(rng, q.v, rng.randint(0, 8))
        tr = trace(q, seq)  # raises ConsistencyError on mismatch
        assert check_sign_coherence(tr).ok


def test_trace_generalized_case(b21):
    tr = trace(b21, (1, 2, 1, 2))
    assert check_sign_coherence(tr).ok
    # E and A genuinely differ here
    assert step_matrix(b21.b, 1, "a", tr.color(1)) != step_matrix(b21.b, 1, "e", tr.color(1))


def test_non_integer_vertices_rejected(k2):
    # nothing is coerced: (1.9, 2.2) used to trace as (1, 2)
    for seq in ((1.9, 2.2), (1.0, 2), (True, 2)):
        with pytest.raises(TypeError):
            trace(k2, seq)
    with pytest.raises(TypeError):
        fpoly_recurrence(k2, (1.0, 2))
    with pytest.raises(TypeError):
        mutate(framed_state(k2), True)


def _reference_step_matrix(b, k, kind, variant):
    """The step matrix written entry by entry, as the definition reads."""
    n = len(b)
    row = []
    for u in range(n):
        if u == k:
            row.append(-1)
        elif kind == "e":
            row.append(max(b[k][u], 0) if variant == "green" else max(-b[k][u], 0))
        else:
            row.append(max(-b[u][k], 0) if variant == "green" else max(b[u][k], 0))
    return tuple(
        tuple(row[j] if i == k else int(i == j) for j in range(n)) for i in range(n)
    )


def _reference_d_mats(tr):
    """D_i = E_1...E_i and D_i^{-1} = E_i...E_1 for i in 0..n, products of the
    definitional step matrices, so no D is read off C through d."""
    d_mats, dinv_mats = [identity(tr.v)], [identity(tr.v)]
    for i in range(1, tr.n + 1):
        e_i = _reference_step_matrix(tr.b_mats[i - 1], tr.vertex(i) - 1, "e", tr.color(i))
        d_mats.append(mat_mul(d_mats[-1], e_i))
        dinv_mats.append(mat_mul(e_i, dinv_mats[-1]))
    return d_mats, dinv_mats


def _reference_coeff_a(tr, ref, i, j):
    d_mats, dinv_mats = ref
    m = mat_mul(dinv_mats[j], d_mats[i])
    return m[tr.vertex(j) - 1][tr.vertex(i) - 1]


def _reference_coeff_b(tr, ref, i, j):
    if i == j:
        return 0
    b, k = tr.b_mats[j - 1], tr.vertex(j) - 1
    other = "red" if tr.color(j) == "green" else "green"
    d_mats, dinv_mats = ref
    m = mat_mul(dinv_mats[j], d_mats[i])
    m = mat_mul(_reference_step_matrix(b, k, "e", tr.color(j)), m)
    m = mat_mul(_reference_step_matrix(b, k, "e", other), m)
    return m[k][tr.vertex(i) - 1]


@st.composite
def symmetrizable_traces(draw):
    """A random skew-symmetrizable quiver B = S*diag(d) and a mutation sequence."""
    v = draw(st.integers(2, 5))
    d = draw(st.lists(st.integers(1, 3), min_size=v, max_size=v))
    s = [[0] * v for _ in range(v)]
    for i in range(v):
        for j in range(i + 1, v):
            s[i][j] = draw(st.integers(-2, 2))
            s[j][i] = -s[i][j]
    b = [[s[i][j] * d[j] for j in range(v)] for i in range(v)]
    seq = draw(st.lists(st.integers(1, v), max_size=9))
    return make_quiver(b, d), tuple(seq)


@settings(max_examples=150, deadline=None)
@given(symmetrizable_traces())
# d = (1, 1, 2), with red steps 4 to 7
@example((make_quiver([[0, 0, -2], [0, 0, -2], [1, 1, 0]]), (1, 3, 2, 1, 2, 1, 2)))
def test_trace_and_pair_coefficients_match_matrix_products(case):
    q, seq = case
    tr = trace(q, seq)
    d_mats, dinv_mats = ref = _reference_d_mats(tr)
    for i, k in enumerate(seq, start=1):
        b = tr.b_mats[i - 1]
        color = tr.color(i)
        other = "red" if color == "green" else "green"
        a_i = _reference_step_matrix(b, k - 1, "a", color)
        e_i = _reference_step_matrix(b, k - 1, "e", color)
        estar_i = _reference_step_matrix(b, k - 1, "e", other)
        assert step_matrix(b, k, "a", color) == a_i
        assert step_matrix(b, k, "e", color) == e_i
        assert step_matrix(b, k, "e", other) == estar_i
        assert tr.b_mats[i] == reference_mutate_b(b, k - 1)
        c_i = reference_mutate_c(tr.c_mats[i - 1], b, k - 1)
        r_i = tuple(abs(row[k - 1]) for row in c_i)
        assert tr.r(i) == r_i
        # the definitional pair row, row v_i of (E*_i - E_i) D_{i-1}^{-1}, is -r_i B_0
        diff = tuple(x - y for x, y in zip(estar_i[k - 1], e_i[k - 1]))
        assert mat_mul((diff,), dinv_mats[i - 1])[0] == mat_mul((tuple(-x for x in r_i),), q.b)[0]
        assert tr.c_mats[i] == mat_mul(tr.c_mats[i - 1], a_i)
        assert tr.cinv_mats[i] == mat_mul(a_i, tr.cinv_mats[i - 1])
        # D_i and D_i^{-1}, read off C through d, against the products of E's
        assert c_between(tr, 0, i, "d") == d_mats[i]
        assert c_between(tr, i, 0, "d") == dinv_mats[i]
    pairs = {}
    for j in range(1, tr.n + 1):
        for i in range(1, j + 1):
            assert coeff_a(tr, i, j) == _reference_coeff_a(tr, ref, i, j)
            assert coeff_b(tr, i, j) == _reference_coeff_b(tr, ref, i, j)
            expected = -_reference_coeff_a(tr, ref, i, j) + _reference_coeff_b(tr, ref, i, j)
            assert pair_term(tr, i, j) == expected
            pairs[i, j] = expected
        assert pair_term(tr, j, j) == -1
    # F_n's candidate c is step i = n - c: its tail is a(i, n), and r_j . omega
    # is the pair term of (i, j) for every later step j <= n
    for n in range(tr.n + 1):
        factor = closedform._trace_candidates(tr, n)[1]
        for c in range(n):
            tail, omega = factor(c)
            assert tail == _reference_coeff_a(tr, ref, n - c, n)
            for j in range(n - c + 1, n + 1):
                assert sum(map(mul, tr.r(j), omega)) == pairs[n - c, j]


@given(st.data())
def test_degree_bound_matches_the_per_n_walk_in_either_order(data):
    # the first call walks every prefix at once; its n must not matter
    q = make_quiver(*data.draw(scaled_skew_symmetric(4, 2, 3)))
    seq = data.draw(st.lists(st.integers(1, q.v), max_size=8))
    ref = trace(q, seq)
    expected = [degree_bound_walk(ref, n) for n in range(ref.n + 1)]
    for order in (range(ref.n + 1), range(ref.n, -1, -1)):
        tr = trace(q, seq)
        assert [tr.degree_bound(n) for n in order] == [expected[n] for n in order]


def test_degree_bounds_are_walked_once_per_trace_and_never_by_trace(k2):
    tr = trace(k2, (1, 2, 1))
    assert "_degree_bounds" not in vars(tr)
    assert tr.degree_bound(3) == (3, 2)
    walked = tr._degree_bounds
    assert [tr.degree_bound(n) for n in range(4)] == [(0, 0), (1, 0), (2, 1), (3, 2)]
    assert tr._degree_bounds is walked
    # a replaced trace walks its own fields
    fresh = dataclasses.replace(tr, r_monomials=((2, 0),) + tr.r_monomials[1:])
    assert "_degree_bounds" not in vars(fresh)
    assert fresh.degree_bound(1) == (2, 0)


def test_point_queries_build_the_factors_of_f_n_once(k2, monkeypatch):
    # 24 queries on one (trace, n) build F_n's candidates and factors once,
    # with its plan; the stored plan is data that no later query or formula
    # writes to
    expected = closedform.fpoly_formula(trace(k2, (1, 2) * 3), 6)
    real_candidates, built = closedform._trace_candidates, []

    def candidates(tr, n):
        built.append(n)
        return real_candidates(tr, n)

    def contents(plan):
        layout, cap, stages = plan
        return [getattr(layout, name) for name in layout.__slots__], cap, stages

    monkeypatch.setattr(closedform, "_trace_candidates", candidates)
    tr = trace(k2, (1, 2) * 3)
    box = [(a, b) for a in range(6) for b in range(4)]
    assert closedform.coefficient_of(tr, 6, box[0]) == expected.coefficient(box[0])
    plan = tr._plans[6]
    snapshot = copy.deepcopy(contents(plan))
    assert [closedform.coefficient_of(tr, 6, m) for m in box[1:]] == [
        expected.coefficient(m) for m in box[1:]]
    assert contents(plan) == snapshot
    assert closedform.fpoly_formula(tr, 6) == expected
    assert contents(plan) == snapshot
    assert tr._plans[6] is plan
    assert built == [6]


def test_point_queries_plan_once_per_trace_and_n(k2, monkeypatch):
    # 24 queries on one (trace, n) pack F_n's candidates once; another n
    # packs its own, and a replaced trace starts with no plan
    expected = closedform.fpoly_formula(trace(k2, (1, 2) * 3), 6)
    real_plan, spans = closedform._plan, []

    def plan(steps, factor, span):
        spans.append(span)
        return real_plan(steps, factor, span)

    monkeypatch.setattr(closedform, "_plan", plan)
    tr = trace(k2, (1, 2) * 4)
    assert "_plans" not in vars(tr)
    box = [(a, b) for a in range(6) for b in range(4)]
    assert [closedform.coefficient_of(tr, 6, m) for m in box] == [
        expected.coefficient(m) for m in box]
    assert spans == [(6, 5)]
    closedform.coefficient_of(tr, 8, (0, 0))
    assert spans == [(6, 5), tr.degree_bound(8)]
    assert list(tr._plans) == [6, 8]
    fresh = dataclasses.replace(tr, r_monomials=((2, 0),) + tr.r_monomials[1:])
    assert "_plans" not in vars(fresh)
    assert closedform.coefficient_of(fresh, 1, (2, 0)) == 1
    assert list(fresh._plans) == [1]
    # the plans are data: dropping the last reference frees the trace at once
    dropped = weakref.ref(tr)
    del tr
    assert dropped() is None


def _outcome(q, seq, run):
    """The trace run gives, or the type and message of what it raises."""
    try:
        return run(q, seq)
    except Exception as exc:  # every exception, so a new kind shows as a mismatch
        return type(exc), str(exc)


def _assert_same_trace(got, expected):
    if isinstance(expected, tuple):  # the reference raised
        assert got == expected
        return
    assert isinstance(got, MutationTrace), got
    for f in dataclasses.fields(MutationTrace):
        assert getattr(got, f.name) == getattr(expected, f.name), f.name


@st.composite
def revisiting_traces(draw):
    """A skew-symmetrizable quiver with v <= 4 and a period repeated 1-6 times
    plus a tail.  The tail starts by mutating the last vertex again, so every
    sequence holds a red step; some draws end in a bad vertex or carry a
    symmetrizer that does not symmetrize, where the trace must raise."""
    b, d = draw(scaled_skew_symmetric(4, 2, 3))
    q = make_quiver(b, d)
    v = q.v
    period = draw(st.lists(st.integers(1, v), min_size=1, max_size=4))
    tail = draw(st.lists(st.integers(1, v), max_size=4))
    seq = period * draw(st.integers(1, 6)) + [period[-1]] + tail
    fault = draw(st.sampled_from((None, None, None, "vertex", "type", "symmetrizer")))
    if fault == "vertex":
        seq.append(draw(st.sampled_from((0, v + 1))))
    elif fault == "type":
        seq.append(draw(st.sampled_from((1.0, True, "1"))))
    elif fault == "symmetrizer" and not q.is_skew_symmetric:
        q = GeneralizedQuiver(q.b, (1,) * v)
    return q, tuple(seq)


@settings(max_examples=150, deadline=None)
@given(revisiting_traces())
def test_trace_matches_the_per_step_reference(case):
    # every field, or the same exception type and message
    q, seq = case
    _assert_same_trace(_outcome(q, seq, trace), _outcome(q, seq, reference_trace))


STABILIZE_GRID = (
    [build_family(FamilySpec.of("a1r", r=r)) for r in (2, 3)]
    + [build_family(FamilySpec.of("kr", r=r)) for r in (2, 3, 4)]
    + [build_gale_robinson(4, 2, 1), build_gale_robinson(7, 2, 3)]
)


@pytest.mark.parametrize("q", STABILIZE_GRID)
def test_periodic_traces_match_the_reference(q):
    # the periods of the stabilization runs return the quiver, so every step
    # after the first period is a memo hit
    seq = tuple(range(1, q.v + 1)) * 10
    tr = trace(q, seq)
    _assert_same_trace(tr, reference_trace(q, seq))
    assert tr.b_mats[q.v] == tr.b_mats[0]


def _count_calls(monkeypatch, names):
    """Wrap each named function of cmatrix so its calls are counted."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, name=name, exact=getattr(cmatrix, name)):
            counts[name] += 1
            return exact(*args)
        monkeypatch.setattr(cmatrix, name, counted)
    return counts


DERIVED = ("_step_rows", "mutate_b", "_frozen_vectors")
EVERY_STEP = ("_column_color", "_times_step", "_step_times", "_add_to_rows")


@pytest.mark.parametrize("fixture, seq, derived", [
    ("a12", (1, 2, 3) * 6, 3),  # B_3 = B_0: three distinct steps
    ("k2", (1, 1, 1, 1), 2),  # green at B_0, red at B_1, and B_2 = B_0
    ("b21", (1, 2) * 4, 4),  # each B under both colors: green x4, red x2, green x2
])
def test_trace_derives_each_distinct_step_once(request, monkeypatch, fixture, seq, derived):
    q = request.getfixturevalue(fixture)
    expected = reference_trace(q, seq)
    counts = _count_calls(monkeypatch, DERIVED + EVERY_STEP)
    tr = trace(q, seq)
    assert counts == {**dict.fromkeys(DERIVED, derived), **dict.fromkeys(EVERY_STEP, len(seq))}
    _assert_same_trace(tr, expected)


def test_a_wrong_frozen_rule_on_a_memo_hit_names_its_step(monkeypatch, a12):
    # step p + 1 = 4 reuses step 1's derivation; the simulation still runs there
    exact, calls = cmatrix._add_to_rows, []

    def wrong_on_step_4(m, k, pos, neg):
        calls.append(k)
        out = exact(m, k, pos, neg)
        return ((out[0][0] + 1,) + out[0][1:],) + out[1:] if len(calls) == 4 else out

    monkeypatch.setattr(cmatrix, "_add_to_rows", wrong_on_step_4)
    with pytest.raises(ConsistencyError, match="at step 4$"):
        trace(a12, (1, 2, 3) * 3)
    assert len(calls) == 4


# B = [[0, 0, -2], [0, 0, -2], [1, 1, 0]] with d = (1, 1, 2); steps 4 to 7 are red
SK3_B, SK3_SEQ = [[0, 0, -2], [0, 0, -2], [1, 1, 0]], (1, 3, 2, 1, 2, 1, 2)


@pytest.mark.parametrize("step", [1, 2, 4])  # the steps of sk3 with a row left alone
def test_a_wrong_frozen_rule_on_an_untouched_row_names_its_step(monkeypatch, step):
    # the rule changes a copy of a row with 0 in column v_i, which the product
    # keeps as it was: a check of only the touched rows would pass it
    exact, calls = cmatrix._add_to_rows, []

    def wrong_on_an_untouched_row(m, k, pos, neg):
        calls.append(k)
        out = exact(m, k, pos, neg)
        if len(calls) != step:
            return out
        i = next(i for i, row in enumerate(m) if row[k] == 0)
        return out[:i] + ((out[i][0] + 1,) + out[i][1:],) + out[i + 1:]

    monkeypatch.setattr(cmatrix, "_add_to_rows", wrong_on_an_untouched_row)
    with pytest.raises(ConsistencyError, match=f"at step {step}$"):
        trace(make_quiver(SK3_B), SK3_SEQ)
    assert len(calls) == step


@pytest.mark.parametrize("b, seq", [
    (SK3_B, SK3_SEQ),
    ([[0, 1], [-2, 0]], (1, 2) * 4),  # b21, d = (2, 1)
])
def test_a_step_keeps_every_row_it_leaves_alone(b, seq):
    # a row of C_{i-1} with 0 in column v_i is the same tuple in C_i and in the
    # frozen rule's result, so the trace's check compares only the touched rows
    q = make_quiver(b)
    tr = trace(q, seq)
    assert "red" in tr.colors and not q.is_skew_symmetric
    for i in range(1, tr.n + 1):
        k = tr.vertex(i) - 1
        rule = mutate_c(tr.c_mats[i - 1], tr.b_mats[i - 1], k)
        for before, after, ruled in zip(tr.c_mats[i - 1], tr.c_mats[i], rule):
            assert (after is before and ruled is before) if before[k] == 0 else after != before
