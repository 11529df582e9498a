import sys

import pytest

import clusterforge.cmatrix
import clusterforge.quiver
from clusterforge import run_verification


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

