import sys

import pytest

import clusterforge.cmatrix
import clusterforge.quiver
import clusterforge.verify
from clusterforge import run_verification
from clusterforge.cli import main
from clusterforge.errors import InexactDivision


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


@pytest.mark.parametrize("fixture, seq", [
    ("k2", (1, 2, 1, 2)),
    ("a12", (1, 2, 3, 1, 2)),
    ("a2", (1, 2, 1, 2)),
    ("dp1", (1, 2, 3, 4, 1)),
])
def test_degree_check_fails_a_bound_one_too_high(request, monkeypatch, fixture, seq):
    # F_n has positive coefficients, so its degree vector equals the bound;
    # support inside a bound one too high in every variable is not enough
    q = request.getfixturevalue(fixture)
    exact = clusterforge.verify._degree_bounds_from_trace
    monkeypatch.setattr(clusterforge.verify, "_degree_bounds_from_trace",
                        lambda tr, n: tuple(b + 1 for b in exact(tr, n)))
    assert run_verification(q, seq)["support within degree bounds"] is False
