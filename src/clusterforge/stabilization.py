"""Deformed polynomials, fundamental monomials, convergence, and limits.

The deformed polynomial S_n applies -C_n^{-1} to every exponent vector of
F_n.  Along an all-green periodic mutation sequence the coefficients of
S_i, S_{i+p}, ... settle down monomial by monomial; `stabilization_run`
observes this empirically under a total-degree cutoff, and the `limit_*`
functions evaluate the closed-form limits for specific families.  No float
is used: the norm cut of `limit_kr`, a bound in the quadratic unit
p = (r + sqrt(r^2-4))/2, is an integer test on exponents, which the tests
check against exact quadratic-field arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

from . import intmat
from .closedform import _coefficient, _deformed_sums, _require_green, deformed_coefficients
from .cmatrix import MutationTrace, _check_step, trace
from .errors import BadParameters, ConsistencyError
from .families import (FamilySpec, SSequence, _family_params, _family_sum, _gale_robinson_b,
                       build_family)
from .intmat import Matrix
from .laurent import LaurentPolynomial
from .quiver import GeneralizedQuiver


def deform(f: LaurentPolynomial, c: Matrix) -> LaurentPolynomial:
    """Send every exponent vector of f through -C^{-1}; coefficients unchanged.

    C is a square unimodular matrix of size f.nvars (ValueError otherwise:
    `inverse_unimodular` checks that C is square and det C a unit), so
    -C^{-1} is a bijection of exponent vectors and no two terms of f land
    on one.
    """
    if len(c) != f.nvars:
        raise ValueError(f"C has {len(c)} rows, not one per variable of f ({f.nvars})")
    deformation = intmat.neg(intmat.inverse_unimodular(c))
    return LaurentPolynomial(f.nvars, {intmat.mat_vec(deformation, e): x
                                       for e, x in f.terms.items()})


@dataclass(frozen=True)
class FundamentalInfo:
    monomial: tuple[int, ...]
    first_step: int
    fundamental: bool
    green: int
    red: int
    coefficient_check: bool | None


def _decomposable(target, parts) -> bool:
    """Can target be a sum of >= 2 vectors from parts (with repetition)?

    Depth-first walk over the exponent box below target with an explicit
    stack, so no recursion limit caps the number of parts; each remainder
    is expanded once.  A remainder left after subtracting one or more parts
    that is itself a part makes target a sum of two or more parts.
    """
    parts = {p for p in parts if any(p) and all(a <= b for a, b in zip(p, target))}
    seen = set()
    stack = [tuple(target)]
    while stack:
        vec = stack.pop()
        for p in parts:
            rest = tuple(map(sub, vec, p))
            if min(rest) >= 0 and rest not in seen:
                if rest in parts:
                    return True
                seen.add(rest)
                stack.append(rest)
    return False


def fundamentals(tr: MutationTrace, n: int, verify: bool = True) -> tuple[FundamentalInfo, ...]:
    """Fundamental flags and color counts, one entry per distinct r-monomial.

    A monomial is fundamental when it is not a sum of two or more of the
    r-monomials r_1..r_n (the closed formula sums over every nondecreasing
    sequence in 1..n, so a later r-monomial decomposes an earlier one too).
    With verify=True the coefficient identity is checked: for each
    fundamental m the coefficients of m across all vertex labels after n
    steps must equal -(green - red) * C_n^{-1}(m).  The identity is a
    skew-symmetric statement (it needs C = D), so the check is skipped for
    genuinely skew-symmetrizable quivers.  The label at vertex k is F_i for
    the last step i <= n at k, or F_0 = 1 if k was never mutated; its
    coefficient of m is the point query on the closed formula behind
    `coefficient_of(tr, i, m)` (`closedform._coefficient`, which takes the
    checked i and the trace's own monomials unchecked), so the check runs
    wherever the formula does.
    """
    _check_step(tr, n)
    verify = verify and tr.quiver.is_skew_symmetric
    tallies: dict[tuple[int, ...], list[int]] = {}  # m -> [first step, green, red]
    rmonos = tr.r_monomials[:n]
    for i, (m, color) in enumerate(zip(rmonos, tr.colors), start=1):
        tallies.setdefault(m, [i, 0, 0])[1 if color == "green" else 2] += 1

    last_step = [0] * tr.v
    for i, k in enumerate(tr.seq[:n], start=1):
        last_step[k - 1] = i

    entries = []
    for m, (step, green, red) in tallies.items():
        fundamental = not _decomposable(m, rmonos)
        check = None
        if verify and fundamental:
            expected = tuple(-(green - red) * x for x in intmat.mat_vec(tr.cinv_mats[n], m))
            check = expected == tuple(_coefficient(tr, i, m) for i in last_step)
        entries.append(FundamentalInfo(m, step, fundamental, green, red, check))
    return tuple(entries)


@dataclass(frozen=True)
class ExcessReport:
    """Green-minus-red tallies per fundamental monomial; diagnostic only."""

    entries: tuple[FundamentalInfo, ...]
    negative_excess: tuple[tuple[int, ...], ...]
    failed_coefficient_checks: tuple[tuple[int, ...], ...]

    @property
    def conjecture_consistent(self) -> bool:
        return not self.negative_excess


def green_excess_probe(tr: MutationTrace, n: int | None = None,
                       verify: bool = True) -> ExcessReport:
    """Report g - r per fundamental monomial; flags but never asserts."""
    n = tr.n if n is None else n
    fund = [e for e in fundamentals(tr, n, verify=verify) if e.fundamental]
    negative = tuple(e.monomial for e in fund if e.green - e.red < 0)
    failed = tuple(e.monomial for e in fund if e.coefficient_check is False)
    return ExcessReport(tuple(fund), negative, failed)


@dataclass(frozen=True)
class StabilizationReport:
    period: int
    indices: tuple[int, ...]
    cutoff: int
    histories: dict
    verdicts: dict

    @property
    def all_stabilized(self) -> bool:
        return all(v is not None for v in self.verdicts.values())

    def stabilized_values(self) -> dict:
        return {
            m: hist[-1]
            for m, hist in self.histories.items()
            if self.verdicts[m] is not None and hist[-1] != 0
        }


def stabilization_run(q: GeneralizedQuiver, seq_period, count: int,
                      cutoff: int) -> StabilizationReport:
    """Observe S_p, S_2p, ..., S_(count*p) coefficientwise under a cutoff.

    Every step must be green (RedStepEncountered otherwise), and a negative
    cutoff is BadParameters, as for the limit_* functions.  A monomial is
    declared stabilized at the first inspected index from which its
    coefficient history is constant; the verdict is None while the last two
    inspected values still differ.

    When the period returns the exchange matrix, B_p = B_0, the step
    matrices repeat, A_{i+p} = A_i, as each is fixed by B_{i-1}, the vertex
    and the green sign.  Then S_kp's sum is a prefix of S_(count*p)'s, so
    one sum at count*p gives every index, and a sign error names its step
    as seen from index count*p.  Otherwise each index is summed on its own.
    """
    seq_period = tuple(seq_period)
    if not all(intmat.is_int(k) for k in seq_period):
        raise BadParameters(f"period {seq_period} has an entry that is not an integer")
    if not seq_period or not intmat.is_int(count) or count < 1:
        raise BadParameters("need a nonempty period and an integer count >= 1")
    intmat.check_count(cutoff, "cutoff")
    p = len(seq_period)
    full_seq = seq_period * count
    tr = trace(q, full_seq)
    _require_green(tr, tr.n)

    indices = tuple(p * (k + 1) for k in range(count))

    if tr.b_mats[p] == tr.b_mats[0]:
        per_index = _deformed_sums(tr, tr.n, cutoff, indices)
    else:
        per_index = [deformed_coefficients(tr, n, cutoff) for n in indices]

    monomials = sorted(
        {m for coeffs in per_index for m in coeffs},
        key=lambda m: (sum(m), m),
    )
    gets = [coeffs.get for coeffs in per_index]
    histories = {m: tuple(get(m, 0) for get in gets) for m in monomials}
    verdicts = {}
    for m, hist in histories.items():
        settle = len(hist) - 1
        while settle > 0 and hist[settle - 1] == hist[-1]:
            settle -= 1
        verdicts[m] = indices[settle] if settle <= len(hist) - 2 else None
    return StabilizationReport(p, indices, cutoff, histories, verdicts)


# -- closed-form limits -------------------------------------------------------


def limit_a1r(r: int, cutoff: int) -> LaurentPolynomial:
    """Stabilized deformed polynomial of the (r+1)-cycle family, truncated.

    1 + (y_{r+1} + y_{r+1} y_r + ... + y_{r+1}...y_2) / (1 - y_1...y_{r+1})^2,
    expanded by the geometric series to total degree <= cutoff.  For r = 1
    this is 1 + y_2 / (1 - y_1 y_2)^2.
    """
    (r,) = _family_params(FamilySpec.of("a1r", r=r))
    intmat.check_count(cutoff, "cutoff")
    v = r + 1
    terms = {(0,) * v: 1}
    heads = []
    for j in range(v, 1, -1):
        heads.append(tuple(1 if j <= i + 1 <= v else 0 for i in range(v)))
    for head in heads:
        base_deg = sum(head)
        e = 0
        while base_deg + e * v <= cutoff:
            exps = tuple(h + e for h in head)
            terms[exps] = terms.get(exps, 0) + (e + 1)
            e += 1
    return LaurentPolynomial(v, terms)


def limit_kr(r: int, cutoff: int) -> LaurentPolynomial:
    """Stabilized deformed polynomial of the r-arrow Kronecker family.

    Sums phi(w) * prod_i (s_{w_i} - sum_{j<i} (s_{w_i-w_j} + s_{w_i-w_j-2}))
    over nondecreasing sequences w >= 0 whose norm sum_i (1/p)^{w_i} is at
    most 1, on the monomial y1^e1 y2^e2, e1 = sum s_{w_i}, e2 = sum s_{w_i-1}.
    As q = 1/p has q^w = s_{w-1}*q - s_{w-2} (s_{-2} = -1), the norm is
    e1 - p*e2, so the test is an exact integer filter on the result's keys:
    2(e1-1) - r*e2 <= 0, or its square is at most e2^2 (r^2-4).  r = 2
    degenerates (sqrt(0)) and is routed to limit_a1r(1).

    The variable frame depends on r.  For r >= 3 the result is a
    stabilization run along (1, 2) with y1 and y2 traded
    (`limits_match_up_to_cycle` finds shift 1); for r = 2 it is that run's
    own frame (shift 0), as for `limit_a1r` and `limit_gale_robinson`.
    """
    (r,) = _family_params(FamilySpec.of("kr", r=r))
    intmat.check_count(cutoff, "cutoff")
    if r == 2:
        return limit_a1r(1, cutoff)
    # s is strictly increasing; the windows (s_{w-1}, s_w) are read in
    # ascending index, so y1 and y2 trade places
    poly = _family_limit(build_family(FamilySpec.of("kr", r=r)).b, SSequence.kronecker(r), cutoff)

    def within_norm(e2, e1):  # a key of the sum, e2 first
        x = 2 * (e1 - 1) - r * e2
        return x <= 0 or x * x <= e2 * e2 * (r * r - 4)

    return LaurentPolynomial(2, {e[::-1]: c for e, c in poly.terms.items() if within_norm(*e)})


def limit_gale_robinson(v: int, r: int, t: int, cutoff: int) -> LaurentPolynomial:
    """Stabilized deformed polynomial of G_{v,r,t}, truncated by total degree.

    Same sequence sum as the finite formula with the tail frozen at s_{w_i}:
    factors s_{w_i} + sum_{j<i} (-s_d - s_{d-v} + s_{d-t} + s_{d-v+t}) with
    d = w_i - w_j, on the monomial prod_i y_i^{s_{w-v+i}}.  The variables are
    framed so the result matches stabilization runs inspected at indices
    divisible by v directly; dp1_coefficient uses the reversed frame.

    The windows are `_family_limit`'s, whose degrees never decrease:
    deg rho(w+1) - deg rho(w) is s_{w+1} - s_{w+1-v}, and s_{i+v} >= s_i,
    because adding one r and one v - r turns a splitting of i into one of
    i + v; and they pass any cutoff, as s_{m r (v-r)} >= m + 1.
    """
    v, r, t = _family_params(FamilySpec.of("gr", v=v, r=r, t=t))
    intmat.check_count(cutoff, "cutoff")
    return _family_limit(_gale_robinson_b(v, r, t), SSequence.gale_robinson(v, r, t), cutoff)


def _family_limit(b, ss: SSequence, cutoff: int) -> LaurentPolynomial:
    """The family sum over the windows of ss within a total-degree cutoff.

    b is the family's exchange matrix, whose pair terms the sum reads, and
    its size v is the windows' length.  The sequence is read once, as
    s_{1-v}, s_{2-v}, ..., and rho(w) is its window of v values
    (s_{w+1-v}, ..., s_w) that starts at position w, candidate w of the
    sum.  The caller's window degrees never decrease and pass any cutoff,
    so the windows within the cutoff are a prefix, and s is read only up
    to the first window past it, which is not passed on.
    """
    v = len(b)
    s = [ss.s(i) for i in range(1 - v, 1)]  # s[w + v - 1] = s_w
    while sum(s[-v:]) <= cutoff:
        s.append(ss.s(len(s) + 1 - v))
    rhos = [tuple(s[w:w + v]) for w in range(len(s) - v)]
    return _family_sum(b, ss, rhos, (cutoff,) * v, cutoff)


def dp1_coefficient(a: int, b: int, c: int, d: int) -> int:
    """Coefficient of y1^a y2^b y3^c y4^d in the dP1 = G_{4,2,1} limit.

    Contributing sequences split into a-c even entries 2q with the q summing
    to c and b-d odd entries 2q+1 with the q summing to d; each sequence is
    weighted like limit_gale_robinson(4, 2, 1).  The exponent indices here
    follow the reversed variable frame, so this equals the coefficient of
    y1^d y2^c y3^b y4^a in limit_gale_robinson(4, 2, 1, ...).

    The weight is in integers: entry w_i, with factor f_i at 1-based
    position m in its run of equal entries, multiplies it by f_i and divides
    by m.  The pair term of two equal entries, -s_0 - s_{-4} + s_{-1} +
    s_{-3}, is checked once to be -1, so a run's factors are F, F-1, ...
    and the weight stays the binomial C(F, m) times those of earlier runs.
    """
    a, b, c, d = map(intmat.exact_int, (a, b, c, d))
    if min(a, b, c, d) < 0 or a - c < 0 or b - d < 0:
        return 0
    ss = SSequence.gale_robinson(4, 2, 1)

    def pair(gap):  # the pair term of entries gap apart
        return -ss.s(gap) - ss.s(gap - 4) + ss.s(gap - 1) + ss.s(gap - 3)

    if pair(0) != -1:
        raise ConsistencyError(f"dp1 diagonal pair term is {pair(0)}, not -1")

    def partitions(total, parts):
        """Nondecreasing tuples of `parts` nonnegative ints summing to total."""
        out, stack = [], [((), total)]
        while stack:  # explicit stack: any number of parts, no recursion limit
            prefix, left = stack.pop()
            slots = parts - len(prefix)
            if not slots:
                if not left:
                    out.append(prefix)
                continue
            low = prefix[-1] if prefix else 0  # every later part is >= q
            stack += [(prefix + (q,), left - q) for q in range(low, left // slots + 1)]
        return out

    total = 0
    for evens in partitions(c, a - c):
        for odds in partitions(d, b - d):
            w = sorted([2 * q for q in evens] + [2 * q + 1 for q in odds])
            weight, run = 1, 0
            for i, wi in enumerate(w):
                run = run + 1 if i and wi == w[i - 1] else 1
                weight = weight * (ss.s(wi) + sum(pair(wi - wj) for wj in w[:i])) // run
                if not weight:  # a zero weight stays zero
                    break
            total += weight
    return total


def limits_match_up_to_cycle(report: StabilizationReport,
                             limit: LaurentPolynomial) -> int | None:
    """Cyclic shift (variables y_i -> y_{i+s}) matching report to limit, if any.

    Returns the shift s, or None.  Comparison covers every monomial within
    the report cutoff on both sides.
    """
    v = limit.nvars
    values = report.stabilized_values()
    for shift in range(v):
        shifted = {}
        for exps, coeff in limit.terms.items():
            if sum(exps) > report.cutoff:
                continue
            new = tuple(exps[(i - shift) % v] for i in range(v))
            shifted[new] = coeff
        if shifted == values:
            return shift
    return None
