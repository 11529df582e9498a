"""Closed-form F-polynomials from C-matrix data.

Three evaluation routes live here:

* `fpoly_formula` sums phi(w) * W(n, w) * prod r_{w_i} over nondecreasing
  index sequences, pruned by the exact componentwise degree bound of F_n.
  Any sequence whose monomial exceeds the bound lands on a monomial outside
  the support of F_n, and all sequences producing a given monomial share it,
  so pruning discards only groups that cancel to zero.
* `fpoly_product_form` expands prod_j L_j^{a(j,n)} for the truncated power
  series L_j = 1 + r_j * prod_{i<j} L_i^{-a(i,j)+b(i,j)}, on packed keys of
  one laurent._Packing of the degree bound, every product by the in-box
  kernel laurent._mul_within.
* `deformed_coefficients` evaluates the deformed polynomial S_n directly in
  deformed exponent space under a total-degree cutoff, which stays cheap
  even when F_n itself would be astronomically large: one matrix product
  deforms every r-monomial, and only those under the cutoff are summed.

One stagewise kernel, `_sequence_sum`, evaluates every sum over
nondecreasing index sequences: `fpoly_formula`, the point query
`coefficient_of`, the family formulas, `deformed_coefficients`, `limit_kr`
and `limit_gale_robinson`.  Each is set up one way: its step vectors, each
candidate's factors (tail_c, omega_c) and its total-degree cap go to
`_plan`, and the kernel gets that plan and a bound.  A state of the
kernel is its packed monomial alone: the pair terms that the entries taken
so far add to candidate c's factor are omega_c . e, e the state's exponent
vector.  Off a trace, tail_c is a(i, n) (`cmatrix.coeff_a`) and omega_c
is -B_0 w_c (`cmatrix._omega`), since every pair row is -r_j B_0 by the
tropical dualities G_t B_t = B_0 C_t and D^{-1} G_t^T D C_t = I
(Nakanishi and Zelevinsky, arXiv:1101.3736), given sign coherence (Gross,
Hacking, Keel and Kontsevich, JAMS 2018): `cmatrix` is the one home of
both, and this module computes neither.  In deformed space, whose steps
are -C_n^{-1} r, omega_c = C_n^T B_0 w_c.  A family sum's steps are
windows of its scalar sequence, and the same identity gives its omega_c
as B steps[c], B the family's skew-symmetric exchange matrix
(`families._family_sum`).
`_plan` packs the steps once for every sum within a box that fits them,
keeps those within its span and cap, and computes each kept candidate's
factors there, once, so the kernel reads its candidates as data; F_n's
plan is memoized on its trace and never changes after it is built.
phi(w) is the paper's notation for 1 over the product of the factorials
of the multiplicities in w; no function computes it.  The diagonal pair term -a(i,i) + b(i,i) is -1 in every sum,
so phi times the factors of a run of m equal indices is the binomial
C(f, m): all arithmetic is in integers, and no weight can fail to cancel.
"""

from __future__ import annotations

from itertools import accumulate, compress, count
from operator import le, mul, or_

from . import intmat
from .cmatrix import MutationTrace, _check_step, _omega, coeff_a, pair_term
from .errors import RedStepEncountered, SignCoherenceViolation
from .laurent import LaurentPolynomial, _mul_within, _Packing


def _trace_candidates(tr: MutationTrace, n: int):
    """F_n's candidates for _plan, latest step first (n not validated).

    Returns (steps, factor): candidate c is step i = n - c, steps[c] is its
    r-monomial and factor(c) its factors (tail_c, omega_c) =
    (a(i, n), omega_i), both read off `cmatrix`.  pair_term(i, j) =
    r_j . omega_i, so the entries e taken before candidate c add
    key . omega_i to its factor, key = sum_e r_e being the state's monomial.
    """
    return tr.r_monomials[:n][::-1], lambda c: (coeff_a(tr, n - c, n), _omega(tr, n - c))


def _trace_plan(tr: MutationTrace, n: int, bound):
    """F_n's plan, for a validated n and F_n's degree bound.

    It is built, its factors with it, once per trace and n and kept in
    tr._plans; `_trace_candidates` runs only then.
    """
    plan = tr._plans.get(n)
    if plan is None:
        plan = tr._plans[n] = _plan(*_trace_candidates(tr, n), bound)
    return plan


def _plan(steps, factor, span, cap=None):
    """The candidates of _sequence_sum, as data for sums within any bound <= span.

    Returns (layout, cap, stages).  layout is the _Packing of span, and cap
    (default sum(span)) the plan's total-degree cap, the one place a sum's
    cap is set.  stages holds (c, key, raised, tail, reads) for each step c
    that fits span and is within cap in total degree, in increasing c: key
    is the packed step, raised the slots where it is nonzero, and (tail,
    reads) is factor(c) = (tail_c, omega_c), with reads the nonzero
    (shift, mask, omega_i) of omega_c.  factor runs once per kept step,
    here, and the plan is never written after.  Every step is checked
    before any factor runs: a zero or negative step is a ValueError, one
    that does not fit span included.
    """
    layout = _Packing(span)
    cap = sum(layout.span) if cap is None else cap
    for c, step in enumerate(steps):
        if min(step) < 0 or not any(step):
            raise ValueError(f"step {c} is {tuple(step)}; steps must be nonnegative and nonzero")
    slots = [m << s for s, m in zip(layout.shifts, layout.masks)]
    stages = []
    for c, step in enumerate(steps):
        if sum(step) <= cap and all(map(le, step, layout.span)):
            tail, omega = factor(c)
            reads = tuple((s, m, x) for s, m, x in zip(layout.shifts, layout.masks, omega) if x)
            stages.append((c, layout.pack(step), sum(compress(slots, step)), tail, reads))
    return layout, cap, tuple(stages)


def _sequence_sum(plan, bound, point=False, marks=None):
    """Sum phi(c) * prod_i f_i over nondecreasing sequences c of candidates.

    phi(c), the paper's notation, is never computed: the run weights below
    fold it into binomials.  The candidates are the indices of the steps of
    plan, a `_plan` whose span covers bound, which holds each kept
    candidate's factors (tail_c, omega_c) and is only read.  Entry c_i has
    f_i = tail(c_i) + sum_{j<i} pair(c_i, c_j), where pair(c, c) = -1 and,
    for e < c, pair(c, e) = omega_c . steps[e], and the sequence lands on
    sum_i steps[c_i].  Only monomials within bound and within cap, the
    smaller of the plan's cap and sum(bound), in total degree count.  With
    point, returns only the coefficient of bound itself.

    Stagewise, candidates in order: the entries taken before c add
    omega_c . e to its factor, e the exponent vector of their monomial, so
    a state is its packed key alone and holds one integer weight for a
    group of sequences.  Taking c m times, with f = tail_c + omega_c . e,
    read off the key's slots, multiplies the weight by
    prod_{j<m} (f - j) / m!, the binomial C(f, m), built one entry at a
    time as weight * (f - m) // (m + 1), which is exact.  A state with no
    room left for a later candidate leaves the stages.  A stage is kept
    when its step is within bound, by one guard test on the packed keys,
    and within cap in degree.

    With point, a state walks on only while it can still reach bound.  A
    candidate raises the slots where its step is nonzero, and each stage
    has one mask: the slots that no candidate from that stage on raises.  A
    state whose gap to bound is nonzero under that mask is dropped when a
    stage finds it waiting, before it forms any transition there, and only
    bound's own key is summed.

    With marks, a nondecreasing sequence of candidate-prefix lengths and no
    point, returns one polynomial per mark: the sum over the sequences of
    the candidates c < mark alone.  As stages run in candidate order, that
    is the running total just before the first stage of a candidate c >=
    mark (or at the end): done plus every waiting state.
    """
    layout, cap, planned = plan
    bound = tuple(bound)
    cap = min(cap, sum(bound))
    guards, top = layout.guards, layout.top
    goal = layout.pack(bound)
    limit = guards + goal  # the box of bound, which the plan's span covers
    over = (cap + 1) << top  # keys from here on exceed the cap
    stages = [stage for stage in planned
              if stage[1] >> top <= cap and (limit - stage[1]) & guards == guards]
    # rooms[s]: keys from here on have no room for the candidates of stage s on
    least = accumulate([stage[1] >> top for stage in reversed(stages)], min, initial=cap + 1)
    rooms = [(cap - d + 1) << top for d in least][::-1]
    # finals[s]: keys formed at stage s from here on are final; with point
    # that is goal, bound's key, as a key of the box >= goal is goal
    finals, deads = rooms[1:], [0] * len(stages)
    if point:
        # deads[s]: the slots no candidate from stage s on raises; a key of the
        # box lies below goal in every slot, so goal - key holds the gaps
        raised = accumulate([stage[2] for stage in reversed(stages)], or_, initial=0)
        finals, deads = [goal] * len(stages), [layout.below & ~r for r in raised][::-1]
    done, states, totals = {}, {0: 1}, []

    def total(acc):
        for key, weight in states.items():
            acc[key] = acc.get(key, 0) + weight
        return layout.poly(acc, (0,) * len(bound))

    for (c, sk, _, tail, reads), room, final, dead in zip(stages, rooms, finals, deads):
        while marks and len(totals) < len(marks) and marks[len(totals)] <= c:
            totals.append(total(dict(done)))
        for key, weight in list(states.items()):
            if key >= room or dead and (goal - key) & dead:
                # final, as this stage merges only below the next room <= room;
                # with point, neither kind of key is goal
                del states[key]
                if not point:
                    done[key] = done.get(key, 0) + weight
                continue
            k = key + sk
            if k >= over or (limit - k) & guards != guards:
                continue
            f, m = tail + sum([x * (key >> s & mask) for s, mask, x in reads]), 0
            while k < over and (limit - k) & guards == guards:
                weight = weight * (f - m) // (m + 1)
                if not weight:
                    break
                m += 1
                if k >= final:
                    done[k] = done.get(k, 0) + weight
                else:
                    states[k] = states.get(k, 0) + weight
                k += sk
    if point:  # goal waits only as the empty sequence's key 0
        return done.get(goal, 0) + states.get(goal, 0)
    if marks is None:
        return total(done)
    return totals + [total(done)] * (len(marks) - len(totals))


def fpoly_formula(tr: MutationTrace, n: int) -> LaurentPolynomial:
    """F_n as the closed-form sum over index sequences.

    Agrees exactly with the mutation recurrence; the empty sequence
    contributes the constant term 1.
    """
    bound = tr.degree_bound(n)
    return _sequence_sum(_trace_plan(tr, n, bound), bound)


def coefficient_of(tr: MutationTrace, n: int, monomial) -> int:
    """Coefficient of one monomial of F_n; int exponents only.

    A monomial outside F_n's box 0 <= m <= degree bound, negative exponents
    included, is 0 with no sum run; one inside sums only the box below it,
    and walks only the states that can still reach it: a state is dropped
    once its exponent of some variable falls short of the monomial's and no
    remaining r-monomial raises that variable.  F_n's candidates are packed
    in its degree box, and their factors computed, once per trace and n,
    when the plan that `fpoly_formula` shares is built and stored on the
    trace; n is validated before the memo is read.

    >>> from clusterforge import make_quiver, trace
    >>> coefficient_of(trace(make_quiver([[0, 2], [-2, 0]]), (1, 2, 1)), 3, (3, 1))
    2
    """
    bound = tr.degree_bound(n)
    monomial = tuple(map(intmat.exact_int, monomial))
    if len(monomial) != tr.v:
        raise ValueError(f"monomial {monomial} needs {tr.v} exponents")
    if not all(0 <= x <= b for x, b in zip(monomial, bound)):
        return 0
    return _sequence_sum(_trace_plan(tr, n, bound), monomial, point=True)


def _binomial_series(layout: _Packing, powers: list[dict], e: int) -> dict[int, int]:
    """(1 + x)**e as the binomial series sum_k C(e, k) x^k, on packed keys.

    powers[k-1] is x^k truncated to the box of layout; it starts as [x] and
    each call extends it, one _mul_within per new power, only past what
    earlier calls built.  For e < 0 the series ends at the first power with
    no term under the bound, which comes because x is a polynomial without
    constant term.
    """
    acc = {0: 1}
    binom = 1
    for k in range(e) if e >= 0 else count():
        binom = binom * (e - k) // (k + 1)
        if k == len(powers):
            powers.append(_mul_within(layout, powers[-1], powers[0]))
        power = powers[k]
        if not power:
            break
        for key, c in power.items():
            acc[key] = acc.get(key, 0) + binom * c
    return {key: c for key, c in acc.items() if c}


def fpoly_product_form(tr: MutationTrace, n: int) -> LaurentPolynomial:
    """F_n as the truncated product prod_j L_j^{a(j,n)}.

    L_j = 1 + r_j * prod_{i<j} L_i^{-a(i,j)+b(i,j)}, expanded as power series
    in the y-variables and truncated at the degree bound of F_n.  Exponents
    only ever add, so truncating every intermediate at the final bound is
    lossless for the in-bound terms.  Each power L_i^e is one binomial
    series over the powers of x_i = L_i - 1, one list per i within the
    call, shared by every exponent e.  All of it is packed keys of one
    _Packing of the bound, unpacked once at the end.
    """
    layout = _Packing(tr.degree_bound(n))
    xpowers: list[list[dict]] = []  # xpowers[i-1] = [x_i, x_i^2, ...]

    def times_power(poly: dict, i: int, e: int) -> dict:
        if not e:
            return poly
        return _mul_within(layout, poly, _binomial_series(layout, xpowers[i - 1], e))

    for j in range(1, n + 1):
        term = layout.pack_within({tr.r(j): 1})
        for i in range(1, j):
            if not term:
                break
            term = times_power(term, i, pair_term(tr, i, j))
        xpowers.append([term])
    result = {0: 1}
    for j in range(1, n + 1):
        result = times_power(result, j, coeff_a(tr, j, n))
    return layout.poly(result, (0,) * tr.v)


def deform_matrix(tr: MutationTrace, n: int) -> intmat.Matrix:
    """The exponent action of the deformation at step n: e -> -C_n^{-1} e."""
    _check_step(tr, n)
    return intmat.neg(tr.cinv_mats[n])


def _require_green(tr: MutationTrace, n: int) -> None:
    """RedStepEncountered naming the first red step among steps 1..n."""
    if "red" in tr.colors[:n]:
        i = tr.colors.index("red") + 1
        raise RedStepEncountered(f"step {i} (vertex {tr.vertex(i)}) is red")


def deformed_coefficients(tr: MutationTrace, n: int, cutoff: int) -> dict:
    """Coefficients of S_n on all monomials of total degree <= cutoff.

    Evaluates the reversed-index form of the closed formula directly in
    deformed exponent space: sequences 0 <= w_1 <= ... <= w_k <= n-1
    contribute phi(w) * prod_i (a(n-w_i, n) + sum_{j<i} pair(n-w_i, n-w_j))
    on the monomial prod_i -C_n^{-1}(r_{n-w_i}).  Requires an all-green
    prefix (RedStepEncountered names the first red step otherwise) so every
    deformed r-monomial has nonnegative positive-degree exponents, which
    makes the cutoff prune exhaustive.

    All n deformed r-monomials are one product -C_n^{-1} R_n, column w of
    R_n being r_{n-w}.  Every column is sign-checked, those above the
    cutoff too; only on a failure are they scanned one by one, to name the
    first offending step.  Every column goes to the plan as candidate w,
    with the cutoff as its cap, so only those of total degree <= cutoff
    are factored and summed, each with the factors of its own step.

    The candidates w < m of that sum are S_m's sum whenever every step is
    green and the step matrices repeat with a period dividing n - m,
    A_{i+p} = A_i (so E_{i+p} = E_i): candidate w's deformed r-monomial,
    tail and pair terms are products of the step matrices of the w + 1
    steps up to its index, so they depend only on w.  `_deformed_sums`
    reads S_m off S_n's sum this way.
    """
    return _deformed_sums(tr, n, cutoff, (n,))[0]


def _deformed_sums(tr: MutationTrace, n: int, cutoff: int, indices) -> list[dict]:
    """deformed_coefficients(tr, m, cutoff) for each m in indices, off S_n's sum.

    The checks, the product -C_n^{-1} R_n and the plan run once, at n.
    Candidate w is step n - w, so index m (nondecreasing, each <= n) is
    itself the mark of the candidates w < m, which is S_m's sum when the
    steps are periodic as deformed_coefficients states; the caller
    guarantees that.
    """
    _check_step(tr, n, 1)
    intmat.check_count(cutoff, "cutoff")
    _require_green(tr, n)
    steps, factor = _trace_candidates(tr, n)
    rhos = list(zip(*intmat.mat_mul(deform_matrix(tr, n), tuple(zip(*steps)))))
    if min(map(min, rhos)) < 0 or not all(map(any, rhos)):
        for w, rho in enumerate(rhos):
            if min(rho) < 0 or not any(rho):
                raise SignCoherenceViolation(f"deformed r-monomial of step {n - w} (vertex "
                                             f"{tr.vertex(n - w)}) is not positive: {rho}")
    box = (cutoff,) * tr.v
    c_cols = tuple(zip(*tr.c_mats[n]))

    def deformed(c: int):  # the key sums rho = -C_n^{-1} r, so omega_c = -C_n^T (F_n's omega_c)
        tail, omega = factor(c)
        return tail, [-sum(map(mul, col, omega)) for col in c_cols]

    polys = _sequence_sum(_plan(rhos, deformed, box, cutoff), box, marks=indices)
    return [dict(poly.terms) for poly in polys]
