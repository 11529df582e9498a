import pytest
from hypothesis import given, settings, strategies as st

from clusterforge import (FamilySpec, LaurentPolynomial, SSequence, build_family,
                          build_gale_robinson, canonical_sequence, check_symmetric,
                          fpoly_formula, fpoly_gale_robinson, fpoly_kr, fpoly_recurrence,
                          family_sequence, fpoly_symmetric, s_values, trace)
from clusterforge.errors import BadParameters, ConsistencyError, NotSymmetric
from clusterforge import families
from clusterforge.families import _family_sum
from clusterforge.quiver import make_quiver
from oracles import gale_robinson_splittings

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
    specs += [FamilySpec.of(f, r=r) for f in ("kr", "a1r", "xx", "dp1") for r in range(-1, 4)]
    specs += [FamilySpec.of("dp1"), FamilySpec.of("kr", r=2, t=1)]
    for spec in specs:
        try:
            build_family(spec)
        except BadParameters:
            with pytest.raises(BadParameters):
                family_sequence(spec)
        else:
            family_sequence(spec)


def test_missing_parameters_named_in_table_order():
    with pytest.raises(BadParameters, match=r"^family 'gr' needs parameter 'v', 't'$"):
        build_family(FamilySpec.of("gr", r=2))
    with pytest.raises(BadParameters, match=r"^family 'kr' needs parameter 'r'$"):
        build_family(FamilySpec.of("kr"))


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


def test_check_symmetric_rejects_a_prefix_len_that_is_not_a_count(a2):
    # a negative prefix would certify A2, which fails greenness, and True
    # would read as 1: like n and cutoff, prefix_len is a nonnegative int
    for bad in (-1, True, 2.5):
        with pytest.raises(BadParameters, match="prefix_len"):
            check_symmetric(a2, prefix_len=bad)
    report = check_symmetric(a2, prefix_len=0)
    assert report.ok and report.green_prefix == 0


def test_a_quiver_with_no_vertex_is_not_symmetric():
    # vertex 1 is neither mutated nor read: the report is not ok, and every
    # family F_n is NotSymmetric, F_0 included
    empty = make_quiver([])
    for prefix_len in (0, 3):
        report = check_symmetric(empty, prefix_len)
        assert not report.ok and not report.cyclic
    for n in (0, 2):
        with pytest.raises(NotSymmetric):
            fpoly_symmetric(empty, n)


def test_canonical_sequence_takes_a_positive_v_and_a_count():
    assert canonical_sequence(3, 7) == (1, 2, 3, 1, 2, 3, 1)
    assert canonical_sequence(1, 0) == ()
    for v, n in ((0, 3), (-2, 3), (True, 3), (2.0, 3), (2, -1), (2, True), (2, 1.5)):
        with pytest.raises(BadParameters):
            canonical_sequence(v, n)


def test_s_values_reads_each_index_as_an_int():
    spec = FamilySpec.of("kr", r=2)
    for bad in (True, 1.5, "1", None):
        with pytest.raises(TypeError, match="not an integer"):
            s_values(spec, [0, bad])


def test_sseq_rejects_a_non_int_index_before_the_memo_grows():
    # a bool was read as 0 or 1, a float failed on the list index after the
    # memo had filled, and a negative float read as a negative index
    ss = SSequence.kronecker(3)
    ss.s(1)
    for read, bad in ((ss.s, True), (ss.s, 2.5), (ss.sp, -1.0)):
        with pytest.raises(TypeError, match=f"entry {bad!r} is not an integer"):
            read(bad)
        assert len(ss._s_memo) == 2
    assert (ss.s(-1), ss.sp(-1), ss.s(2)) == (0, 0, 8)


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


def test_gale_robinson_s_reads_one_earlier_entry_and_counts_splittings():
    # s_i = s_{i-r} + [(v-r) | i] against the splitting count, for every
    # v <= 11 and r; t only sets the companion
    for v in range(2, 12):
        for r in range(1, v):
            ss = SSequence.gale_robinson(v, r, 1)
            assert [ss.s(i) for i in range(-v, 400)] == [
                gale_robinson_splittings(v, r, i) for i in range(-v, 400)], (v, r)


def test_gale_robinson_deep_index_within_default_recursion_limit():
    # the rule reads s_{i-r} from the memo, so it adds no stack depth either
    assert SSequence.gale_robinson(4, 2, 1).s(20000) == 10001


def test_sseq_deep_index_within_default_recursion_limit(k2):
    # the memo fills in ascending order, so a deep index adds no stack depth
    assert SSequence.kronecker(2).s(5000) == 5001
    assert SSequence.from_quiver(k2).s(5000) == 5001


def test_s_values_a1r():
    spec = FamilySpec.of("a1r", r=2)
    assert [s for s, _ in s_values(spec, range(0, 7))] == [0, 1, 1, 2, 2, 3, 3]


@pytest.mark.parametrize("r", range(1, 7))
def test_a1r_closed_form_is_the_quiver_sequence_shifted(r):
    # no family sum reads the closed form ceil(i/r): fpoly_symmetric reads
    # A1r's s off the quiver, which the closed form matches one index later
    closed = SSequence.a1r(r)
    generic = SSequence.from_quiver(build_family(FamilySpec.of("a1r", r=r)))
    assert [closed.s(i + 1) for i in range(200)] == [generic.s(i) for i in range(200)]


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
    # every valid G_{v,r,t} with v <= 9 (24 of the 136 with v = 2r or v = 2t,
    # where two lags coincide) reads the same lag dicts off its vertex 1
    triples = []
    for v in range(2, 10):
        for r in range(1, v):
            for t in range(1, v):
                try:
                    triples.append((build_gale_robinson(v, r, t), (v, r, t)))
                except BadParameters:
                    pass
    assert len(triples) == 136
    assert sum(v == 2 * r or v == 2 * t for _, (v, r, t) in triples) == 24
    for q, params in triples:
        family, generic = SSequence.gale_robinson(*params), SSequence.from_quiver(q)
        assert family.recurrence == generic.recurrence, params
        assert family.companion == generic.companion, params


GALE_ROBINSON_UP_TO_7 = [(v, r, t) for v in range(2, 8) for r in range(1, v)
                         for t in range(1, v) if t not in (r, v - r)]
FIRST_GALE_ROBINSON = ((4, 2, 1), (7, 2, 3), (5, 1, 2), (6, 3, 1))
RECURRENT_SEQUENCES = (
    [(f"kr{r}", SSequence.kronecker(r)) for r in range(2, 7)]
    + [(f"gr{v}{r}{t}", SSequence.gale_robinson(v, r, t)) for v, r, t in FIRST_GALE_ROBINSON]
    + [(f"quiver-{name}", SSequence.from_quiver(build_family(spec))) for name, spec in (
        ("k3", FamilySpec.of("kr", r=3)), ("dp1", FamilySpec.of("dp1")),
        ("g723", FamilySpec.of("gr", v=7, r=2, t=3)), ("a12", FamilySpec.of("a1r", r=2)))]
    # no family sum compares the splitting count with the recurrence, so
    # every valid G_{v,r,t} with v <= 7 is checked here
    + [(f"gr{v}{r}{t}", SSequence.gale_robinson(v, r, t)) for v, r, t in GALE_ROBINSON_UP_TO_7
       if (v, r, t) not in FIRST_GALE_ROBINSON]
)


@pytest.mark.parametrize("name, ss", RECURRENT_SEQUENCES)
@settings(max_examples=30, deadline=None)
@given(st.integers(1, 400))
def test_sseq_recurrence_reproduces_s(name, ss, i):
    # the recurrence data holds from i = 1 on; s_0 = 1 is its seed
    assert ss.s(i) == sum(a * ss.s(i - lag) for lag, a in ss.recurrence.items())


KR2_B, KR3_B = ((0, 2), (-2, 0)), ((0, 3), (-3, 0))


def test_family_sum_rejects_a_wrong_recurrence():
    # limit_kr's sum for r = 3 at cutoff 30; under the matrix of r = 2, whose
    # recurrence is r = 2's, omega_1 gives p(1) = -2 on s's first window,
    # where s gives -3
    ss = SSequence.kronecker(3)
    rhos = [(ss.s(w - 1), ss.s(w)) for w in range(4)]
    assert (8, 21) in _family_sum(KR3_B, ss, rhos, (30, 30), 30).terms  # candidate 3 is taken
    # the same windows read in descending index give p(1) = 3 on kr3's matrix
    with pytest.raises(ConsistencyError, match=r"p\(1\) = -3 is off the exchange matrix"):
        _family_sum(KR3_B, ss, [rho[::-1] for rho in rhos], (30, 30), 30)
    with pytest.raises(ConsistencyError, match=r"p\(1\) = -3 is off the exchange matrix"):
        _family_sum(KR2_B, ss, rhos, (30, 30), 30)


def test_family_sum_checks_its_pair_terms_before_any_sum(monkeypatch):
    # the windows read in descending index fail at p(1) while the plan is
    # built, so the kernel never runs
    def no_sum(*args, **kwargs):
        raise AssertionError("_sequence_sum ran")

    monkeypatch.setattr(families, "_sequence_sum", no_sum)
    ss = SSequence.kronecker(3)
    rhos = [(ss.s(w), ss.s(w - 1)) for w in range(4)]
    with pytest.raises(ConsistencyError, match=r"p\(1\) = -3 is off the exchange matrix"):
        _family_sum(KR3_B, ss, rhos, (30, 30), 30)


def test_family_sum_rejects_a_diagonal_other_than_minus_one():
    # the kernel's diagonal pair term is -1; s'_0 = s_0 would make p(0) = 0
    ss = SSequence.kronecker(3)
    ss.companion = {0: 1}
    with pytest.raises(ConsistencyError, match=r"p\(0\) = 0, not the diagonal -1"):
        _family_sum(KR3_B, ss, [(1, 0)], (3, 3))


def test_family_pair_terms_are_read_off_the_exchange_matrix():
    # _family_sum's omega_c = B steps[c] rests on steps[e]^T B steps[c] =
    # s'_{c-e} - s_{c-e} for every e < c, on a finite formula's windows
    # (s_{w-1}, ..., s_{w-v}) in descending w and on a limit's windows
    # (s_{w+1-v}, ..., s_w) in ascending w; every such B is skew-symmetric
    cases = [(f"kr{r}", build_family(FamilySpec.of("kr", r=r)), SSequence.kronecker(r))
             for r in range(2, 7)]
    cases += [(f"gr{v}{r}{t}", build_gale_robinson(v, r, t), SSequence.gale_robinson(v, r, t))
              for v, r, t in GALE_ROBINSON_UP_TO_7]
    a1r = [build_family(FamilySpec.of("a1r", r=r)) for r in range(1, 6)]
    cases += [(f"a1r{q.v - 1}", q, SSequence.from_quiver(q)) for q in a1r]
    assert len(cases) == 62
    for name, q, ss in cases:
        assert q.is_skew_symmetric and check_symmetric(q, 30).ok, name
        v, n = q.v, 30
        finite = [tuple(ss.s(w - i) for i in range(1, v + 1)) for w in range(n, 0, -1)]
        limit = [tuple(ss.s(w - v + i) for i in range(1, v + 1)) for w in range(n)]
        for steps in (finite, limit):
            omegas = [[sum(x * y for x, y in zip(row, step)) for row in q.b] for step in steps]
            for c in range(n):
                for e in range(c):
                    pair = sum(x * y for x, y in zip(steps[e], omegas[c]))
                    assert pair == ss.sp(c - e) - ss.s(c - e), (name, e, c)


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


def test_fpoly_gale_robinson_matches_formula_past_one_window_shift(dp1, g723):
    # the family sum reads every pair term off B and s, and F_n by formula
    # reads no s at all: 8,604 and 7,111 terms
    for (v, r, t), q, n in (((4, 2, 1), dp1, 12), ((7, 2, 3), g723, 16)):
        expected = fpoly_formula(trace(q, canonical_sequence(v, n)), n)
        assert fpoly_gale_robinson(v, r, t, n) == expected


def test_fpoly_symmetric_matches_recurrence(k2, dp1):
    assert fpoly_symmetric(k2, 3) == fpoly_recurrence(k2, (1, 2, 1))[-1]
    assert fpoly_symmetric(k2, 0) == LaurentPolynomial.one(2)
    seq = canonical_sequence(4, 6)
    assert fpoly_symmetric(dp1, 6) == fpoly_recurrence(dp1, seq)[-1]


def test_fpoly_symmetric_a12_matches_recurrence(a12):
    assert fpoly_symmetric(a12, 0) == LaurentPolynomial.one(3)
    for n in (3, 6, 7):
        seq = canonical_sequence(3, n)
        assert fpoly_symmetric(a12, n) == fpoly_recurrence(a12, seq)[-1]


def test_fpoly_symmetric_rejects_asymmetric(a2, a3_path):
    with pytest.raises(NotSymmetric):
        fpoly_symmetric(a3_path, 3)
    # the symmetry checks run for n = 0 too, where F_0 = 1 would need none
    with pytest.raises(NotSymmetric):
        fpoly_symmetric(a3_path, 0)
    # A2 passes the structural checks but loses greenness at step 4
    with pytest.raises(NotSymmetric):
        fpoly_symmetric(a2, 6)
    assert fpoly_symmetric(a2, 3) == fpoly_recurrence(a2, (1, 2, 1))[-1]


def _spy_family_sums(monkeypatch) -> list:
    """Record each _family_sum that the family F_n run, and run it."""
    ran, real = [], families._family_sum

    def spy(*args):
        ran.append(args)
        return real(*args)

    monkeypatch.setattr(families, "_family_sum", spy)
    return ran


def test_family_r_monomials_are_checked_against_the_trace(k2, monkeypatch):
    # kr r = 3's s on the r = 2 quiver: r_1 = (s_0, s_-1) = (1, 0) agrees,
    # r_2 = (s_1, s_0) is (3, 1) where the trace's is (2, 1)
    ran = _spy_family_sums(monkeypatch)
    assert fpoly_kr(2, 4) == fpoly_recurrence(k2, (1, 2, 1, 2))[-1]
    assert len(ran) == 1  # the spy sees a sum that runs
    monkeypatch.setattr(families.SSequence, "from_quiver", lambda q: SSequence.kronecker(3))
    for run in (lambda: fpoly_symmetric(k2, 4), lambda: fpoly_kr(2, 4)):
        with pytest.raises(ConsistencyError,
                           match=r"step 2 is \(3, 1\), not the trace's \(2, 1\)"):
            run()
    assert len(ran) == 1


def test_gale_robinson_r_monomials_are_checked_against_the_trace(monkeypatch):
    # G_{4,2,1}'s s has lags {2: 2, 4: -1}; with lag 4 read as 5, s_0..s_3 =
    # 1, 0, 2, 0 agree and s_4 is 4, not 3, so r_5 = (s_4, ..., s_1) is the
    # first r-monomial that differs
    real = SSequence.from_quiver(build_gale_robinson(4, 2, 1))
    assert real.recurrence == {2: 2, 4: -1}
    off = SSequence({2: 2, 5: -1}, real.companion)
    ran = _spy_family_sums(monkeypatch)
    monkeypatch.setattr(families.SSequence, "from_quiver", lambda q: off)
    with pytest.raises(ConsistencyError,
                       match=r"step 5 is \(4, 0, 2, 0\), not the trace's \(3, 0, 2, 0\)"):
        fpoly_gale_robinson(4, 2, 1, 6)
    assert ran == []
