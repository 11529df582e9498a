import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import clusterforge.quiver
from clusterforge import (LaurentPolynomial, degree_bounds, fpoly_recurrence,
                          framed_state, make_quiver, mutate)
from clusterforge.errors import InexactDivision, NotSkewSymmetrizable
from clusterforge.quiver import _find_symmetrizer, mutate_b, mutate_c
from conftest import (random_sequence, random_skew_symmetric, reference_mutate_b,
                      reference_mutate_c, scaled_skew_symmetric)
from oracles import find_symmetrizer, mutate_by_monomials, recurrence_step_by_step

GOLDEN_F = {
    1: {(0, 0): 1, (1, 0): 1},
    2: {(0, 0): 1, (1, 0): 2, (2, 0): 1, (2, 1): 1},
    3: {(0, 0): 1, (1, 0): 3, (2, 0): 3, (3, 0): 1, (2, 1): 2, (3, 1): 2, (3, 2): 1},
    4: {(0, 0): 1, (1, 0): 4, (2, 0): 6, (3, 0): 4, (4, 0): 1, (2, 1): 3,
        (3, 1): 6, (4, 1): 3, (3, 2): 2, (4, 2): 3, (4, 3): 1},
}


def test_make_quiver_k2(k2):
    assert k2.d == (1, 1)
    assert k2.is_skew_symmetric


def test_make_quiver_single_vertex():
    q = make_quiver([[0]])
    assert q.d == (1,)


def test_make_quiver_skew_symmetrizable():
    q = make_quiver([[0, 1], [-2, 0]])
    assert q.d == (2, 1)
    assert not q.is_skew_symmetric


def test_make_quiver_rejects_non_symmetrizable():
    with pytest.raises(NotSkewSymmetrizable):
        make_quiver([[0, 1], [1, 0]])  # same-sign pair
    with pytest.raises(NotSkewSymmetrizable):
        make_quiver([[0, 1], [0, 0]])  # one-sided edge
    with pytest.raises(NotSkewSymmetrizable):
        # consistent pairwise ratios are impossible around this 3-cycle
        make_quiver([[0, 1, -1], [-1, 0, 1], [2, -1, 0]])


def test_make_quiver_validates_shape():
    with pytest.raises(ValueError):
        make_quiver([[0, 1]])
    with pytest.raises(ValueError):
        make_quiver([[1]])
    with pytest.raises(ValueError):
        make_quiver([[0, 2], [-2, 0]], d=(1, -1))
    with pytest.raises(NotSkewSymmetrizable):
        make_quiver([[0, 2], [-2, 0]], d=(1, 2))


def test_mutate_first_step_label(k2):
    state = mutate(framed_state(k2), 1)
    assert state.labels[0] == LaurentPolynomial(2, {(0, 0): 1, (1, 0): 1})


def test_mutate_involution(k2):
    start = framed_state(k2)
    back = mutate(mutate(start, 1), 1)
    assert back.quiver.b == start.quiver.b
    assert back.c == start.c
    assert back.labels == start.labels


def test_mutate_two_steps_label(k2):
    state = mutate(mutate(framed_state(k2), 1), 2)
    assert state.labels[1] == LaurentPolynomial(2, GOLDEN_F[2])


def test_recurrence_golden_values(k2):
    fs = fpoly_recurrence(k2, (1, 2, 1, 2))
    for i, f in enumerate(fs, start=1):
        assert f == LaurentPolynomial(2, GOLDEN_F[i])


def test_recurrence_empty_sequence(k2):
    assert fpoly_recurrence(k2, ()) == []


def test_recurrence_single_vertex():
    q = make_quiver([[0]])
    (f1,) = fpoly_recurrence(q, (1,))
    assert f1 == LaurentPolynomial(1, {(0,): 1, (1,): 1})


def test_degree_bounds_examples(k2):
    assert degree_bounds(k2, (1, 2, 1)) == (3, 2)
    assert degree_bounds(k2, ()) == (0, 0)
    # a one-shot iterator gave (0, 0) when the step count was taken after the trace
    assert degree_bounds(k2, iter((1, 2, 1))) == (3, 2)
    # alternating sequences: y1-degree is the s-sequence value s_{n-1}
    s = [1, 2, 3, 4, 5, 6, 7, 8]
    for n in range(1, 9):
        seq = tuple((i % 2) + 1 for i in range(n))
        assert degree_bounds(k2, seq)[0] == s[n - 1]


def test_bounds_dominate_support_random():
    rng = random.Random(11)
    for _ in range(25):
        q = random_skew_symmetric(rng, rng.randint(2, 3))
        seq = random_sequence(rng, q.v, rng.randint(1, 5))
        if sum(degree_bounds(q, seq)) > 40:
            continue
        f = fpoly_recurrence(q, seq)[-1]
        bound = degree_bounds(q, seq)
        assert all(all(e <= b for e, b in zip(exps, bound)) for exps in f.terms)


def test_mutation_preserves_symmetrizer():
    rng = random.Random(3)
    q = make_quiver([[0, 1], [-2, 0]])
    state = framed_state(q)
    for _ in range(6):
        state = mutate(state, rng.randint(1, 2))
        b, d = state.quiver.b, state.quiver.d
        assert all(
            d[i] * b[i][j] == -d[j] * b[j][i]
            for i in range(2) for j in range(2)
        )


def test_labels_positive_with_unit_constant(k3):
    for f in fpoly_recurrence(k3, (1, 2, 1, 2, 1)):
        assert f.is_polynomial()
        assert f.constant_term == 1
        assert all(c > 0 for c in f.terms.values())


def test_recurrence_rejects_a_label_without_unit_constant(monkeypatch, k2):
    # each quotient doubled: F_1 = 2 + 2*y1 has no unit constant term
    exact = clusterforge.quiver.exact_divide
    monkeypatch.setattr(clusterforge.quiver, "exact_divide", lambda a, b: 2 * exact(a, b))
    with pytest.raises(InexactDivision, match="F_1 is not a positive polynomial with unit"):
        fpoly_recurrence(k2, (1, 2))


@st.composite
def mutation_cases(draw):
    """B = S*diag(d) with some isolated vertices, a frozen block C, a vertex k.

    Isolated vertices give B zero rows and columns.  Each column of C is
    green (nonnegative) or red (nonpositive), as sign coherence has it.
    """
    v = draw(st.integers(1, 5))
    d = draw(st.lists(st.integers(1, 3), min_size=v, max_size=v))
    isolated = draw(st.sets(st.integers(0, v - 1)))
    s = [[0] * v for _ in range(v)]
    for i in range(v):
        for j in range(i + 1, v):
            if i not in isolated and j not in isolated:
                s[i][j] = draw(st.integers(-3, 3))
                s[j][i] = -s[i][j]
    b = make_quiver([[s[i][j] * d[j] for j in range(v)] for i in range(v)], d).b
    columns = [[sign * x for x in draw(st.lists(st.integers(0, 3), min_size=v, max_size=v))]
               for sign in draw(st.lists(st.sampled_from((1, -1)), min_size=v, max_size=v))]
    c = tuple(zip(*columns))
    return b, c, draw(st.integers(0, v - 1))


@given(mutation_cases())
def test_mutate_b_and_c_match_entrywise_definitions(case):
    b, c, k = case
    new_b, new_c = mutate_b(b, k), mutate_c(c, b, k)
    assert new_b == reference_mutate_b(b, k)
    assert new_c == reference_mutate_c(c, b, k)
    # a row with a zero in column k (other than row k of B) comes back as
    # the same tuple
    assert all(new is row for i, (row, new) in enumerate(zip(b, new_b)) if i != k and not row[k])
    assert all(new is row for row, new in zip(c, new_c) if not row[k])


@st.composite
def symmetrizable_matrices(draw):
    """B = S*diag(d), and sometimes B with one entry changed."""
    b, _ = draw(scaled_skew_symmetric(5, 3, 6))
    if len(b) > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(len(b))))[:2]
        b[i][j] = draw(st.integers(-12, 12))
    return tuple(map(tuple, b))


def _symmetrizer_or_error(find, b):
    try:
        return find(b)
    except NotSkewSymmetrizable as exc:
        return str(exc)


@given(symmetrizable_matrices())
def test_integer_symmetrizer_matches_fractions(b):
    # the same d, or the same NotSkewSymmetrizable, as propagation on Fractions
    found = _symmetrizer_or_error(_find_symmetrizer, b)
    assert found == _symmetrizer_or_error(find_symmetrizer, b)
    if isinstance(found, tuple):
        assert all(found[i] * b[i][j] == -found[j] * b[j][i] for i in range(len(b))
                   for j in range(len(b)))


@st.composite
def framed_sequences(draw):
    """A skew-symmetrizable quiver and a mutation sequence; entries up to 2
    and three steps keep the labels small (a fourth step can take seconds)."""
    q = make_quiver(*draw(scaled_skew_symmetric(4, 1, 2)))
    return q, draw(st.lists(st.integers(1, q.v), max_size=3))


@given(framed_sequences())
def test_mutate_matches_exchange_built_from_monomials(case):
    # one numerator per step, and no label's terms are touched on the way
    q, seq = case
    state = framed_state(q)
    for k in seq:
        before = [dict(label.terms) for label in state.labels]
        new = mutate(state, k)
        assert new == mutate_by_monomials(state, k)
        assert [label.terms for label in state.labels] == before
        state = new


@st.composite
def repeated_runs(draw):
    """A skew-symmetrizable quiver and a sequence of at most three runs of
    one vertex, each 1-3 long; entries up to 2 keep the labels small, since
    a run mutates once and a fourth mutation can take seconds."""
    q = make_quiver(*draw(scaled_skew_symmetric(4, 1, 2)))
    runs = draw(st.lists(st.tuples(st.integers(1, q.v), st.integers(1, 3)), max_size=3))
    return q, tuple(k for k, length in runs for _ in range(length))


@given(repeated_runs())
def test_recurrence_equals_step_by_step_reference(case):
    q, seq = case
    assert fpoly_recurrence(q, seq) == recurrence_step_by_step(q, seq)


@given(framed_sequences(), st.data())
def test_mutate_is_an_involution(case, data):
    # the premise of the recurrence's undone-step rule: mu_k mu_k gives
    # back B, C and every label, on states reached by short walks
    q, seq = case
    state = framed_state(q)
    for k in seq[:2]:
        state = mutate(state, k)
    k = data.draw(st.integers(1, q.v))
    assert mutate(mutate(state, k), k) == state


def _count_mutations(monkeypatch):
    calls = []
    exact = clusterforge.quiver.mutate

    def counting(state, k):
        calls.append(k)
        return exact(state, k)

    monkeypatch.setattr(clusterforge.quiver, "mutate", counting)
    return calls


@pytest.mark.parametrize("fixture, seq, mutated", [
    ("k2", (1, 1, 2, 2, 1), [1, 2, 1]),
    ("a3_path", (3, 3, 3), [3]),
    ("k2", (1, 2, 1), [1, 2, 1]),  # no repeat: the benchmark self-check's pin
])
def test_recurrence_mutates_only_for_steps_not_undone(request, monkeypatch, fixture, seq,
                                                       mutated):
    q = request.getfixturevalue(fixture)
    expected = recurrence_step_by_step(q, seq)
    calls = _count_mutations(monkeypatch)
    assert fpoly_recurrence(q, seq) == expected
    assert calls == mutated


def test_recurrence_undone_first_step_gives_one(monkeypatch, k2):
    calls = _count_mutations(monkeypatch)
    assert fpoly_recurrence(k2, (1, 1))[-1] == 1
    assert calls == [1]


def test_recurrence_undone_step_still_checks_its_vertex(k2):
    # 1.0 and True equal the vertex 1 before them, yet are no vertex
    for seq in ((1, 1.0), (1, True)):
        with pytest.raises(TypeError):
            fpoly_recurrence(k2, seq)


def test_recurrence_checks_every_label_it_returns(monkeypatch, k2):
    # an undone step's F_i, an earlier label or the initial 1, is checked too
    checked = []
    exact = LaurentPolynomial.is_polynomial

    def counting(self):
        checked.append(self)
        return exact(self)

    monkeypatch.setattr(LaurentPolynomial, "is_polynomial", counting)
    fs = fpoly_recurrence(k2, (1, 1, 2, 2, 1))
    assert len(fs) == 5
    assert [id(f) for f in checked] == [id(f) for f in fs]
