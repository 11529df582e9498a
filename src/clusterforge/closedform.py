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
  even when F_n itself would be astronomically large.

One iterative kernel, `_sequence_sum`, evaluates every sum over
nondecreasing index sequences: `fpoly_formula`, the point query
`coefficient_of`, the family formulas, `deformed_coefficients`, `limit_kr`
and `limit_gale_robinson`, each supplying its step vectors, tail and pair
terms, bound and cap.

All arithmetic is exact; rationals appear only through phi and must cancel
to integers in every final coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from math import factorial
from operator import add, le

from . import intmat
from .cmatrix import MutationTrace, _check_step, _dot_column, coeff_a, pair_term
from .errors import NonIntegerCoefficient, SignCoherenceViolation
from .laurent import LaurentPolynomial, _mul_within, _Packing
from .quiver import _degree_bounds_from_trace


def phi(w) -> Fraction:
    """Multiset symmetry factor: 1 over the product of multiplicity factorials.

    >>> phi((1, 1, 1))
    Fraction(1, 6)
    >>> phi((1, 2))
    Fraction(1, 1)
    """
    w = tuple(w)
    denom = 1
    run = 1
    for prev, cur in zip(w, w[1:]):
        run = run + 1 if cur == prev else 1
        denom *= run
    return Fraction(1, denom)


def w_value(tr: MutationTrace, n: int, w) -> int:
    """The product W(n, w_1..w_k) over a nondecreasing index sequence."""
    w = tuple(w)
    if any(a > b for a, b in zip(w, w[1:])):
        raise ValueError("index sequence must be nondecreasing")
    _check_step(tr, n)
    if w and not (1 <= w[0] and w[-1] <= n):
        raise ValueError("index sequence out of range")
    total = 1
    for i, wi in enumerate(w):
        total *= coeff_a(tr, wi, n) + sum(pair_term(tr, wi, wj) for wj in w[i + 1:])
    return total


def _tail_and_pair(tr: MutationTrace, n: int):
    """The tail and pair terms of F_n's sequence sum, in candidate order c = n - w.

    tail(c) = a(n-c, n) and pair(c, e) = -a(n-c, n-e) + b(n-c, n-e), the
    cmatrix pair_term.  The kernel asks only for 0 <= e <= c < n, so lookups
    are not validated; each pair term is memoized within the call.
    """
    rows, d_mats, seq = tr.pair_rows, tr.d_mats, tr.seq
    memo: dict[tuple[int, int], int] = {}

    def tail(c: int) -> int:
        return coeff_a(tr, n - c, n)

    def pair(c: int, e: int) -> int:
        value = memo.get((c, e))
        if value is None:
            i = n - c
            value = memo[c, e] = (
                -1 if c == e else _dot_column(rows[n - e - 1], d_mats[i], seq[i - 1] - 1))
        return value

    return tail, pair


def enumerate_sequences(tr: MutationTrace, n: int, bound):
    """Yield the nondecreasing sequences whose r-monomial stays within bound.

    Depth-first extension with an explicit stack: a sequence is yielded,
    then extended by every index >= its last entry whose r-monomial still
    fits componentwise, smallest index first.  Every r-monomial is a nonzero
    nonnegative vector, so the tree is finite.
    """
    _check_step(tr, n)
    bound = tuple(bound)
    if any(x < 0 for x in bound):
        raise ValueError("bound must be componentwise nonnegative")
    rvecs = [tr.r(i) for i in range(1, n + 1)]
    stack = [((), (0,) * tr.v)]
    while stack:
        prefix, total = stack.pop()
        yield prefix
        for w in range(n, prefix[-1] - 1 if prefix else 0, -1):
            new_total = tuple(map(add, total, rvecs[w - 1]))
            if all(map(le, new_total, bound)):
                stack.append((prefix + (w,), new_total))


def _sequence_sum(steps, tail, pair, bound, cap=None, target=None):
    """Sum phi(c) * prod_i f_i over nondecreasing sequences c of candidates.

    The candidates are the indices 0..m-1 of steps.  The entry c_i of a
    sequence has the factor f_i = tail(c_i) + sum_{j<i} pair(c_i, c_j) and the
    sequence lands on the monomial sum_i steps[c_i]; the empty sequence gives
    1 on the zero monomial.  Only sequences whose monomial stays within bound
    componentwise and within cap (default sum(bound)) in total degree are
    visited, and a subtree whose running product is zero is skipped.

    Returns the polynomial of the sums, or with a target monomial (pass it
    as the bound too) only the sum on that monomial, building no dict.

    The walk keeps an explicit stack, so length meets no recursion limit.
    Monomials are packed keys in the laurent._Packing layout of bound: a
    child's key is one add, the bound one guard-bit subtraction, the cap one
    comparison.  Each node carries its live list, the candidates that still
    fit with the factor each would get; a child's list is a suffix of its
    parent's plus one pair term per entry, so pair terms are looked up only
    for candidates that fit.  Weights are integers over K = k_max!, k_max =
    cap // least step degree: phi's denominator divides k! at length k, so
    a child's val * f // run is exact.  Each sum is divided by K once; a
    remainder raises NonIntegerCoefficient.
    """
    bound = tuple(bound)
    nvars = len(bound)
    cap = sum(bound) if cap is None else cap
    layout = _Packing(bound)
    pack, guards, limit = layout.pack, layout.guards, layout.limit
    over = (cap + 1) << layout.top  # keys from here on exceed the cap
    root = []
    degrees = []
    for c, step in enumerate(steps):
        if min(step) < 0 or not any(step):
            raise ValueError(f"step {c} is {tuple(step)}; steps must be nonnegative and nonzero")
        if sum(step) <= cap and all(map(le, step, bound)):
            root.append((c, pack(step), tail(c)))
            degrees.append(sum(step))
    scale = factorial(cap // min(degrees) if degrees else 0)
    tkey = None if target is None else pack(target)
    acc = {0: scale} if tkey is None else None
    total = scale if tkey == 0 else 0
    stack = [(key, scale * f, pos, 1, root)
             for pos, (_, key, f) in enumerate(root) if f]
    push, pop = stack.append, stack.pop
    while stack:
        key, val, pos, run, parent = pop()
        c0 = parent[pos][0]
        if acc is not None:
            acc[key] = acc.get(key, 0) + val
        elif key == tkey:
            total += val
        live = []
        for c, sk, f in islice(parent, pos, None):
            k = key + sk
            if k < over and (limit - k) & guards == guards:
                f += pair(c, c0)
                if f:
                    if c == c0:
                        push((k, val * f // (run + 1), len(live), run + 1, live))
                    else:
                        push((k, val * f, len(live), 1, live))
                live.append((c, sk, f))

    low = (0,) * nvars
    terms = {}
    for key, value in ({tkey: total} if acc is None else acc).items():
        terms[key], rem = divmod(value, scale)
        if rem:
            raise NonIntegerCoefficient(
                f"coefficient of {layout.unpack(key, low)} is "
                f"{Fraction(value, scale)}; rationals failed to cancel"
            )
    return layout.poly(terms, low) if acc is not None else terms[tkey]


def fpoly_formula(tr: MutationTrace, n: int) -> LaurentPolynomial:
    """F_n as the closed-form sum over index sequences.

    Agrees exactly with the mutation recurrence; the empty sequence
    contributes the constant term 1.
    """
    _check_step(tr, n)
    bound = _degree_bounds_from_trace(tr, n)
    steps = [tr.r(n - c) for c in range(n)]
    return _sequence_sum(steps, *_tail_and_pair(tr, n), bound)


def coefficient_of(tr: MutationTrace, n: int, monomial) -> int:
    """Coefficient of one monomial of F_n, summing only its own sequences; int exponents only."""
    _check_step(tr, n)
    monomial = tuple(map(intmat.exact_int, monomial))
    if len(monomial) != tr.v:
        raise ValueError(f"monomial {monomial} needs {tr.v} exponents")
    if any(x < 0 for x in monomial):
        raise ValueError("monomial exponents must be nonnegative")
    steps = [tr.r(n - c) for c in range(n)]
    return _sequence_sum(steps, *_tail_and_pair(tr, n), monomial, target=monomial)


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
    _check_step(tr, n)
    layout = _Packing(_degree_bounds_from_trace(tr, n))
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


def deformed_formula(tr: MutationTrace, n: int) -> LaurentPolynomial:
    """Deformed polynomial S_n: fpoly_formula with exponents sent through -C_n^{-1}."""
    f = fpoly_formula(tr, n)
    m = deform_matrix(tr, n)
    return f.map_exponents(lambda exps: intmat.mat_vec(m, exps))


def deformed_coefficients(tr: MutationTrace, n: int, cutoff: int) -> dict:
    """Coefficients of S_n on all monomials of total degree <= cutoff.

    Evaluates the reversed-index form of the closed formula directly in
    deformed exponent space: sequences 0 <= w_1 <= ... <= w_k <= n-1
    contribute phi(w) * prod_i (a(n-w_i, n) + sum_{j<i} pair(n-w_i, n-w_j))
    on the monomial prod_i -C_n^{-1}(r_{n-w_i}).  Requires an all-green
    prefix so every deformed r-monomial has nonnegative positive-degree
    exponents, which makes the cutoff prune exhaustive.
    """
    _check_step(tr, n, 1)
    intmat.check_count(cutoff, "cutoff")
    if any(color == "red" for color in tr.colors[:n]):
        raise ValueError("deformed cutoff evaluation requires an all-green prefix")
    deform = deform_matrix(tr, n)
    rhos = [intmat.mat_vec(deform, tr.r(i)) for i in range(n, 0, -1)]
    for w, rho in enumerate(rhos):
        if min(rho) < 0 or not any(rho):
            raise SignCoherenceViolation(f"deformed r-monomial of step {n - w} (vertex "
                                         f"{tr.vertex(n - w)}) is not positive: {rho}")
    poly = _sequence_sum(rhos, *_tail_and_pair(tr, n), (cutoff,) * tr.v, cutoff)
    return dict(poly.terms)
