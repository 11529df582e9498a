import pytest

from clusterforge import (FamilySpec, LaurentPolynomial, SSequence, build_family,
                          build_gale_robinson, canonical_sequence, check_symmetric,
                          fpoly_gale_robinson, fpoly_kr, fpoly_recurrence,
                          family_sequence, fpoly_symmetric, s_values, trace)
from clusterforge.errors import BadParameters, NotSymmetric

G723_B = (
    (0, 0, 1, -1, -1, 1, 0),
    (0, 0, 0, 1, -1, -1, 1),
    (-1, 0, 0, 1, 2, -1, -1),
    (1, -1, -1, 0, 1, 1, -1),
    (1, 1, -2, -1, 0, 0, 1),
    (-1, 1, 1, -1, 0, 0, 0),
    (0, -1, 1, 1, -1, 0, 0),
)


def test_build_kr():
    q = build_family(FamilySpec.of("kr", r=2))
    assert q.b == ((0, 2), (-2, 0))
    with pytest.raises(BadParameters):
        build_family(FamilySpec.of("kr", r=1))


def test_build_g723_matches_arrow_list(g723):
    assert g723.b == G723_B
    # the named arrows at vertex 1: out to 3 and 6, in from 4 and 5
    assert g723.b[0][2] == 1 and g723.b[0][5] == 1
    assert g723.b[3][0] == 1 and g723.b[4][0] == 1


def test_build_dp1_is_somos4_quiver(dp1):
    assert dp1.b == ((0, -1, 2, -1), (1, 0, -3, 2), (-2, 3, 0, -1), (1, -2, 1, 0))


def test_build_a1r_family(a12):
    assert a12.b == ((0, 1, 1), (-1, 0, 1), (-1, -1, 0))
    assert build_family(FamilySpec.of("a1r", r=1)).b == ((0, 2), (-2, 0))
    with pytest.raises(BadParameters):
        build_family(FamilySpec.of("a1r", r=0))


def test_build_gr_validates():
    with pytest.raises(BadParameters):
        build_gale_robinson(4, 0, 1)
    with pytest.raises(BadParameters):
        build_gale_robinson(4, 2, 2)  # r = t degenerates


def test_family_sequence_accepts_what_build_family_accepts():
    # one set of parameter rules: G_{4,1,1} has r = t and is rejected by both
    with pytest.raises(BadParameters, match="disjoint"):
        s_values(FamilySpec.of("gr", v=4, r=1, t=1), range(3))
    specs = [FamilySpec.of("gr", v=v, r=r, t=t)
             for v in range(1, 7) for r in range(-1, 8) for t in range(-1, 8)]
    specs += [FamilySpec.of(f, r=r) for f in ("kr", "a1r", "xx") for r in range(-1, 4)]
    for spec in specs:
        try:
            build_family(spec)
        except BadParameters:
            with pytest.raises(BadParameters):
                family_sequence(spec)
        else:
            family_sequence(spec)


@pytest.mark.parametrize("value", [2.9, True, "2", 2.0, None])
def test_family_spec_rejects_non_integer_parameters(value):
    # no silent int() coercion: r=2.9 must not build the r = 2 quiver
    with pytest.raises(BadParameters, match="not an integer"):
        build_family(FamilySpec.of("kr", r=value))


def test_check_symmetric_passes(k3, g723, dp1):
    for q in (k3, g723, dp1):
        report = check_symmetric(q, prefix_len=20)
        assert report.ok, report


def test_check_symmetric_a2_fails_on_greenness(a2):
    # A2 happens to satisfy the relabeling identities; the cyclic sequence
    # turns red at step 4, so the symmetric-quiver test still fails
    report = check_symmetric(a2, prefix_len=6)
    assert not report.ok
    assert report.green_prefix == 3


def test_check_symmetric_a12(a12):
    # the acyclic cycle orientation is a genuine symmetric quiver
    assert check_symmetric(a12, prefix_len=9).ok
    # and its own recurrence sequence is the shifted ceiling sequence
    ss = SSequence.from_quiver(a12)
    assert [ss.s(i) for i in range(8)] == [1, 1, 2, 2, 3, 3, 4, 4]


def test_s_values_kr():
    spec = FamilySpec.of("kr", r=2)
    values = s_values(spec, range(-1, 5))
    assert [s for s, _ in values] == [0, 1, 2, 3, 4, 5]
    # companion sequence: s'_i = -s_{i-2}
    assert [sp for _, sp in values] == [0, 0, 0, -1, -2, -3]


def test_s_values_gale_robinson():
    spec = FamilySpec.of("gr", v=4, r=2, t=1)
    values = [s for s, _ in s_values(spec, range(0, 9))]
    assert values == [1, 0, 2, 0, 3, 0, 4, 0, 5]
    spec7 = FamilySpec.of("gr", v=7, r=2, t=3)
    assert [s for s, _ in s_values(spec7, range(0, 8))] == [1, 0, 1, 0, 1, 1, 1, 1]


def test_sseq_deep_index_within_default_recursion_limit(k2):
    # the memo fills in ascending order, so a deep index adds no stack depth
    assert SSequence.kronecker(2).s(5000) == 5001
    assert SSequence.from_quiver(k2).s(5000) == 5001


def test_s_values_a1r():
    spec = FamilySpec.of("a1r", r=2)
    assert [s for s, _ in s_values(spec, range(0, 7))] == [0, 1, 1, 2, 2, 3, 3]


def test_sseq_from_quiver_matches_family_rules(k3, dp1, g723):
    pairs = (
        (k3, SSequence.kronecker(3)),
        (dp1, SSequence.gale_robinson(4, 2, 1)),
        (g723, SSequence.gale_robinson(7, 2, 3)),
    )
    for q, family in pairs:
        generic = SSequence.from_quiver(q)
        for i in range(-3, 15):
            assert generic.s(i) == family.s(i)
            assert generic.sp(i) == family.sp(i)


def test_symmetric_r_monomials_follow_s(k3, dp1):
    for q in (k3, dp1):
        ss = SSequence.from_quiver(q)
        tr = trace(q, canonical_sequence(q.v, 10))
        for k in range(1, 11):
            expected = tuple(ss.s(k - i) for i in range(1, q.v + 1))
            assert tr.r(k) == expected


def test_pair_coefficients_follow_s(k3, g723):
    from clusterforge import coeff_a, coeff_b

    for q in (k3, g723):
        ss = SSequence.from_quiver(q)
        n = 8
        tr = trace(q, canonical_sequence(q.v, n))
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                assert coeff_a(tr, i, j) == ss.s(j - i)
                if i < j:
                    assert coeff_b(tr, i, j) == ss.sp(j - i)


def test_fpoly_kr_matches_recurrence(k2, k3):
    for r, q in ((2, k2), (3, k3)):
        for n in range(0, 6):
            seq = canonical_sequence(2, n)
            expected = (fpoly_recurrence(q, seq)[-1] if n
                        else LaurentPolynomial.one(2))
            assert fpoly_kr(r, n) == expected


def test_fpoly_kr_trivial_cases():
    assert fpoly_kr(3, 1) == LaurentPolynomial(2, {(0, 0): 1, (1, 0): 1})
    with pytest.raises(BadParameters):
        fpoly_kr(1, 3)


def test_fpoly_gale_robinson_matches_recurrence(dp1, g723):
    for (v, r, t), q, top in (((4, 2, 1), dp1, 5), ((7, 2, 3), g723, 7)):
        for n in range(0, top + 1):
            seq = canonical_sequence(v, n)
            expected = (fpoly_recurrence(q, seq)[-1] if n
                        else LaurentPolynomial.one(v))
            assert fpoly_gale_robinson(v, r, t, n) == expected


def test_fpoly_symmetric_matches_recurrence(k2, dp1):
    assert fpoly_symmetric(k2, 3) == fpoly_recurrence(k2, (1, 2, 1))[-1]
    assert fpoly_symmetric(k2, 0) == LaurentPolynomial.one(2)
    seq = canonical_sequence(4, 6)
    assert fpoly_symmetric(dp1, 6) == fpoly_recurrence(dp1, seq)[-1]


def test_fpoly_symmetric_a12_matches_recurrence(a12):
    for n in (3, 6, 7):
        seq = canonical_sequence(3, n)
        assert fpoly_symmetric(a12, n) == fpoly_recurrence(a12, seq)[-1]


def test_fpoly_symmetric_rejects_asymmetric(a2, a3_path):
    with pytest.raises(NotSymmetric):
        fpoly_symmetric(a3_path, 3)
    # A2 passes the structural checks but loses greenness at step 4
    with pytest.raises(NotSymmetric):
        fpoly_symmetric(a2, 6)
    assert fpoly_symmetric(a2, 3) == fpoly_recurrence(a2, (1, 2, 1))[-1]
