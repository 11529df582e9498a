"""The closed formula and the family sum against the rank-2 greedy recursion."""

import pytest
from hypothesis import given, settings, strategies as st

from clusterforge import (degree_bounds, fpoly_formula, fpoly_kr, fpoly_recurrence,
                          make_quiver, trace)
from oracles import greedy_fpoly


def alternating(n):
    return tuple(i % 2 + 1 for i in range(n))


def greedy(b, c, n):
    """F_n of B = [[0, b], [-c, 0]] under 1, 2, 1, ... by the greedy recursion.

    The recursion's (b, c) is the matrix's (c, b), as the recurrence pins below.
    """
    a1, a2 = degree_bounds(make_quiver([[0, b], [-c, 0]]), alternating(n))
    return greedy_fpoly(a1, a2, c, b)


@pytest.mark.parametrize("b, c", [(2, 2), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4)])
def test_greedy_orientation_matches_recurrence(b, c):
    fs = fpoly_recurrence(make_quiver([[0, b], [-c, 0]]), alternating(6))
    for n, f in enumerate(fs, 1):
        assert f.terms == greedy(b, c, n)


def test_formula_kr2_n80_matches_greedy():
    # a size the stagewise sum reaches in well under a second
    f = fpoly_formula(trace(make_quiver([[0, 2], [-2, 0]]), alternating(80)), 80)
    assert len(f.terms) == 3241
    assert sum(f.terms.values()) == 1983924214061919432247806074196061
    assert f.terms == greedy(2, 2, 80)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(((2, 14), (3, 5), (4, 4))).flatmap(
    lambda rn: st.tuples(st.just(rn[0]), st.integers(0, rn[1]))))
def test_kr_formula_and_family_match_greedy(case):
    r, n = case
    expected = greedy(r, r, n)
    tr = trace(make_quiver([[0, r], [-r, 0]]), alternating(n))
    assert fpoly_formula(tr, n).terms == expected
    assert fpoly_kr(r, n).terms == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 5))
def test_rank2_formula_matches_greedy(b, c, n):
    # b != c reaches the symmetrizer paths, which kr never does
    tr = trace(make_quiver([[0, b], [-c, 0]]), alternating(n))
    assert fpoly_formula(tr, n).terms == greedy(b, c, n)
