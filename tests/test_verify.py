import dataclasses
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clusterforge.cmatrix
import clusterforge.quiver
import clusterforge.verify
from clusterforge import make_quiver, run_verification, step_matrix, trace
from clusterforge.cli import main
from clusterforge.cmatrix import MutationTrace, _nonzeros, _step_rows, _step_times
from clusterforge.errors import ConsistencyError, InexactDivision
from clusterforge.intmat import identity
from conftest import scaled_skew_symmetric


def count_calls(monkeypatch, original):
    """Count calls of original under every name a clusterforge module holds it by."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "clusterforge" or name.startswith("clusterforge."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("fixture, seq", [
    ("k2", (1, 2, 1, 2)),        # all green: deformation and fundamentals run
    ("a12", (1, 2, 3, 1, 2)),
    ("a2", (1, 2, 1, 2)),        # red steps
    ("dp1", (1, 2, 3, 4, 1)),
])
def test_run_verification_traces_once_and_mutates_n_times(request, monkeypatch,
                                                          fixture, seq):
    q = request.getfixturevalue(fixture)
    traces = count_calls(monkeypatch, clusterforge.cmatrix.trace)
    mutations = count_calls(monkeypatch, clusterforge.quiver.mutate)
    results = run_verification(q, seq)
    assert all(results.values()), results
    assert len(traces) == 1
    assert len(mutations) == len(seq)



def test_symmetrizer_check_fails_an_exchange_matrix_d_does_not_symmetrize(monkeypatch, b21):
    # d = (2, 1) symmetrizes ((0, 1), (-2, 0)) but not ((0, 1), (-1, 0))
    exact = clusterforge.verify.trace

    def broken(q, seq):
        tr = exact(q, seq)
        return dataclasses.replace(tr, b_mats=tr.b_mats[:-1] + (((0, 1), (-1, 0)),))

    monkeypatch.setattr(clusterforge.verify, "trace", broken)
    results = run_verification(b21, (1, 2))
    assert [name for name, ok in results.items() if not ok] == ["symmetrizer preserved"]


def test_failing_recurrence_is_reported_as_fail(monkeypatch, capsys, k2):
    # fpoly_recurrence raises on the very conditions the entry names, so the
    # entry is False, and `verify` prints the table and exits 3, not 2
    def failing(q, seq):
        raise InexactDivision("F_1 is not a positive polynomial with unit constant")

    monkeypatch.setattr(clusterforge.verify, "fpoly_recurrence", failing)
    results = run_verification(k2, (1, 2))
    assert results["recurrence yields positive unit-constant polynomials"] is False
    assert main(["verify", "--family", "kr", "--params", "r=2", "--seq", "1,2"]) == 3
    out, err = capsys.readouterr()
    assert "recurrence yields positive unit-constant polynomials  FAIL" in out
    assert err == ""


def test_trace_consistency_error_ends_the_battery(monkeypatch, capsys, k2):
    # a C-matrix product that disagrees with the simulation is the one entry,
    # False, and `verify` prints that one FAIL line and exits 3
    def inconsistent(q, seq):
        raise ConsistencyError("C-matrix product disagrees with the frozen-arrow simulation")

    monkeypatch.setattr(clusterforge.verify, "trace", inconsistent)
    assert run_verification(k2, (1, 2)) == {"cmatrix product matches simulation": False}
    assert main(["verify", "--family", "kr", "--params", "r=2", "--seq", "1,2"]) == 3
    out, err = capsys.readouterr()
    assert out == "cmatrix product matches simulation  FAIL\n"
    assert err == ""


@pytest.mark.parametrize("fixture, seq", [
    ("k2", (1, 2, 1, 2)),
    ("a12", (1, 2, 3, 1, 2)),
    ("a2", (1, 2, 1, 2)),
    ("dp1", (1, 2, 3, 4, 1)),
])
def test_degree_check_fails_a_bound_one_too_high(request, monkeypatch, fixture, seq):
    # F_n has positive coefficients, so its degree vector equals the bound;
    # support inside a bound one too high in every variable is not enough,
    # and the formula and product form still agree under the looser bound
    q = request.getfixturevalue(fixture)
    exact = MutationTrace.degree_bound
    monkeypatch.setattr(MutationTrace, "degree_bound",
                        lambda tr, n: tuple(b + 1 for b in exact(tr, n)))
    results = run_verification(q, seq)
    assert [name for name, ok in results.items() if not ok] == ["support within degree bounds"]


INVOLUTIONS = "step matrices are involutions"


def _matrix_check(m, k):
    """S*S = I for a whole step matrix S, which is the identity outside row k."""
    ident = identity(len(m))
    return m[:k] + m[k + 1:] == ident[:k] + ident[k + 1:] and _step_times(_nonzeros(m[k]), k, m) == ident


def _with_row(b, k, row):
    """The identity of b's size with row k replaced."""
    return tuple(tuple(row) if i == k else tuple(int(i == j) for j in range(len(b)))
                 for i in range(len(b)))


@st.composite
def verification_cases(draw):
    """A skew-symmetrizable quiver, a sequence, and a change (diagonal entry,
    column, added value) to each step row; entries up to 2 keep each case small."""
    q = make_quiver(*draw(scaled_skew_symmetric(3, 1, 2)))
    seq = tuple(draw(st.lists(st.integers(1, q.v), min_size=1, max_size=3)))
    change = (draw(st.sampled_from((-1, 0, 1))), draw(st.integers(0, q.v - 1)),
              draw(st.integers(-1, 1)))
    return q, seq, change


@settings(deadline=None)  # two run_verification calls per case
@given(verification_cases())
def test_row_involution_check_matches_step_matrix_check(case):
    # on the step rows as they are, and on changed rows, which the row check
    # must reject exactly when the whole-matrix check does
    q, seq, (diagonal, column, added) = case
    tr = trace(q, seq)
    steps = list(zip(tr.b_mats, seq, tr.colors))
    # A of the step's color, E of both colors, each built as a whole matrix
    assert run_verification(q, seq)[INVOLUTIONS] is all(
        _matrix_check(step_matrix(b, vertex, kind, variant), vertex - 1)
        for b, vertex, color in steps
        for kind, variant in (("a", color), ("e", "green"), ("e", "red")))

    def changed(b, k, sign):
        rows = _step_rows(b, k, sign)
        for row in rows:
            row[column] += added
            row[k] = diagonal
        return rows

    with mock.patch.object(clusterforge.verify, "_step_rows", changed):
        found = run_verification(q, seq)[INVOLUTIONS]
    assert found is all(
        _matrix_check(_with_row(b, vertex - 1, changed(b, vertex - 1, sign)[kind]), vertex - 1)
        for b, vertex, color in steps
        for sign, kind in ((1 if color == "green" else -1, 0), (1, 1), (-1, 1)))


@pytest.mark.parametrize("fixture, seq", [
    ("k2", (1, 2, 1, 2)),
    ("a12", (1, 2, 3, 1, 2)),
    ("a2", (1, 2, 1, 2)),
    ("b21", (1, 2, 1)),
    ("dp1", (1, 2, 3, 4, 1)),
])
def test_involution_check_fails_a_step_row_with_diagonal_plus_one(request, monkeypatch,
                                                                  fixture, seq):
    # S with S[k][k] = +1 and another nonzero in row k is not an involution
    q = request.getfixturevalue(fixture)
    exact = clusterforge.verify._step_rows

    def plus_one(b, k, sign):
        a_row, e_row = exact(b, k, sign)
        a_row[k] = e_row[k] = 1
        return a_row, e_row

    monkeypatch.setattr(clusterforge.verify, "_step_rows", plus_one)
    results = run_verification(q, seq)
    assert results.pop(INVOLUTIONS) is False
    assert all(results.values()), results
