import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterforge import (c_between, check_sign_coherence, coeff_a, coeff_b,
                          fpoly_recurrence, framed_state, make_quiver, mutate,
                          step_matrix, trace)
from clusterforge.cmatrix import pair_term
from clusterforge.errors import IndexOrder
from clusterforge.intmat import identity, mat_mul
from conftest import random_sequence, random_skew_symmetric


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
        assert tr.c_mats == tr.d_mats


def test_trace_k2_golden(k2):
    tr = trace(k2, (1, 2, 1))
    assert tr.colors == ("green", "green", "green")
    assert tr.r_monomials == ((1, 0), (2, 1), (3, 2))
    assert tr.c_mats[3] == ((-3, 4), (-2, 3))


def test_trace_empty(k2):
    tr = trace(k2, ())
    assert tr.c_mats == (identity(2),)
    assert tr.d_mats == (identity(2),)
    assert tr.r_monomials == ()


def test_c_between(k2):
    tr = trace(k2, (1, 2, 1))
    assert c_between(tr, 2, 2) == identity(2)
    assert c_between(tr, 0, 3) == tr.c_mats[3]
    # inverse of the between-step matrix: C_3^{-1} C_1
    assert c_between(tr, 3, 1) == ((3, -2), (2, -1))


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


def test_coeff_index_order(k2):
    tr = trace(k2, (1, 2, 1))
    with pytest.raises(IndexOrder):
        coeff_a(tr, 3, 1)
    with pytest.raises(IndexOrder):
        coeff_b(tr, 2, 1)


def test_delta_signs(k2):
    tr = trace(k2, (1, 2, 1))
    # all green: opposite color to "mutation zero counts as red"
    assert tr.delta(0, 1) == -1
    assert tr.delta(1, 3) == 1
    # the delta sign matches the column sign of C_i at the mutated vertex
    for i in range(1, 4):
        col = [row[tr.vertex(i) - 1] for row in tr.c_mats[i]]
        sign = 1 if all(x >= 0 for x in col) else -1
        assert sign == tr.delta(0, i)


def test_sign_coherence_report(k2, dp1):
    assert check_sign_coherence(trace(k2, (1, 2, 1))).ok
    assert check_sign_coherence(trace(k2, ())).ok
    assert check_sign_coherence(trace(dp1, tuple(1 + (i % 4) for i in range(20)))).ok


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


def _reference_coeff_a(tr, i, j):
    m = mat_mul(tr.dinv_mats[j], tr.d_mats[i])
    return m[tr.vertex(j) - 1][tr.vertex(i) - 1]


def _reference_coeff_b(tr, i, j):
    if i == j:
        return 0
    b, k = tr.b_mats[j - 1], tr.vertex(j) - 1
    other = "red" if tr.color(j) == "green" else "green"
    m = mat_mul(tr.dinv_mats[j], tr.d_mats[i])
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
def test_trace_and_pair_coefficients_match_matrix_products(case):
    q, seq = case
    tr = trace(q, seq)
    for i, k in enumerate(seq, start=1):
        b = tr.b_mats[i - 1]
        color = tr.color(i)
        other = "red" if color == "green" else "green"
        a_i = _reference_step_matrix(b, k - 1, "a", color)
        e_i = _reference_step_matrix(b, k - 1, "e", color)
        assert step_matrix(b, k, "a", color) == a_i
        assert step_matrix(b, k, "e", color) == e_i
        assert step_matrix(b, k, "e", other) == _reference_step_matrix(b, k - 1, "e", other)
        assert tr.c_mats[i] == mat_mul(tr.c_mats[i - 1], a_i)
        assert tr.d_mats[i] == mat_mul(tr.d_mats[i - 1], e_i)
        assert tr.cinv_mats[i] == mat_mul(a_i, tr.cinv_mats[i - 1])
        assert tr.dinv_mats[i] == mat_mul(e_i, tr.dinv_mats[i - 1])
    for j in range(1, tr.n + 1):
        for i in range(1, j + 1):
            assert coeff_a(tr, i, j) == _reference_coeff_a(tr, i, j)
            assert coeff_b(tr, i, j) == _reference_coeff_b(tr, i, j)
            expected = -_reference_coeff_a(tr, i, j) + _reference_coeff_b(tr, i, j)
            assert pair_term(tr, i, j) == expected
        assert pair_term(tr, j, j) == -1
