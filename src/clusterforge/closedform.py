"""Closed-form F-polynomials from C-matrix data.

Three evaluation routes live here:

* `fpoly_formula` sums phi(w) * W(n, w) * prod r_{w_i} over nondecreasing
  index sequences, pruned by the exact componentwise degree bound of F_n.
  Any sequence whose monomial exceeds the bound lands on a monomial outside
  the support of F_n, and all sequences producing a given monomial share it,
  so pruning discards only groups that cancel to zero.
* `fpoly_product_form` expands prod_j L_j^{a(j,n)} for the truncated power
  series L_j = 1 + r_j * prod_{i<j} L_i^{-a(i,j)+b(i,j)}.
* `deformed_coefficients` evaluates the deformed polynomial S_n directly in
  deformed exponent space under a total-degree cutoff, which stays cheap
  even when F_n itself would be astronomically large.

All arithmetic is exact; rationals appear only through phi and must cancel
to integers in every final coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count

from . import intmat
from .cmatrix import MutationTrace, coeff_a, coeff_b
from .errors import NonIntegerCoefficient, SignCoherenceViolation
from .laurent import LaurentPolynomial, mul_truncated, truncate
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
    if w and not (1 <= w[0] and w[-1] <= n <= tr.n):
        raise ValueError("index sequence out of range")
    total = 1
    for i, wi in enumerate(w):
        factor = coeff_a(tr, wi, n)
        for wj in w[i + 1:]:
            factor += -coeff_a(tr, wi, wj) + coeff_b(tr, wi, wj)
        total *= factor
    return total


class _PairTables:
    """Memoized a(i, n) tails and -a(i,j)+b(i,j) pair terms for one trace."""

    def __init__(self, tr: MutationTrace, n: int):
        self.tr = tr
        self.n = n
        self._tail: dict[int, int] = {}
        self._pair: dict[tuple[int, int], int] = {}

    def tail(self, i: int) -> int:
        if i not in self._tail:
            self._tail[i] = coeff_a(self.tr, i, self.n)
        return self._tail[i]

    def pair(self, i: int, j: int) -> int:
        """-a(i,j) + b(i,j) for i <= j (equal indices give -1)."""
        key = (i, j)
        if key not in self._pair:
            self._pair[key] = -coeff_a(self.tr, i, j) + coeff_b(self.tr, i, j)
        return self._pair[key]


def enumerate_sequences(tr: MutationTrace, n: int, bound):
    """Yield the nondecreasing sequences whose r-monomial stays within bound.

    Depth-first extension: a sequence is yielded, then extended by every
    index >= its last entry whose r-monomial still fits componentwise.
    Every r-monomial is a nonzero nonnegative vector, so the tree is finite.
    """
    bound = tuple(bound)
    if any(x < 0 for x in bound):
        raise ValueError("bound must be componentwise nonnegative")
    rvecs = [tr.r(i) for i in range(1, n + 1)]

    def extend(prefix: tuple[int, ...], total: tuple[int, ...]):
        yield prefix
        start = prefix[-1] if prefix else 1
        for w in range(start, n + 1):
            new_total = tuple(a + b for a, b in zip(total, rvecs[w - 1]))
            if all(a <= b for a, b in zip(new_total, bound)):
                yield from extend(prefix + (w,), new_total)

    yield from extend((), (0,) * tr.v)


def _formula_sum(n, rvecs, tail, pair, bound, nvars):
    """Accumulate phi * W * prod(r) over all in-bound sequences.

    Sequences are built by appending entries in descending order; appending
    a new smallest entry fixes its W-factor (the sum over its later, larger
    partners), so the running product never has to be revisited.  Subtrees
    with a zero running product contribute nothing and are pruned.
    """
    acc: dict[tuple[int, ...], Fraction] = {}

    def visit(max_next, exps, w_prod, phi_den, last, run):
        acc[exps] = acc.get(exps, Fraction(0)) + Fraction(w_prod, phi_den)
        for w in range(max_next, 0, -1):
            rv = rvecs[w - 1]
            new_exps = tuple(a + b for a, b in zip(exps, rv))
            if any(a > b for a, b in zip(new_exps, bound)):
                continue
            elements, counts = run
            factor = tail(w) + sum(
                c * pair(w, e) for e, c in zip(elements, counts)
            )
            new_w = w_prod * factor
            if new_w == 0:
                continue
            if w == last:
                new_run = (elements, counts[:-1] + [counts[-1] + 1])
                new_den = phi_den * new_run[1][-1]
            else:
                new_run = (elements + [w], counts + [1])
                new_den = phi_den
            visit(w, new_exps, new_w, new_den, w, new_run)

    visit(n, (0,) * nvars, 1, 1, 0, ([], []))
    return acc


def _integerize(acc, nvars) -> LaurentPolynomial:
    terms = {}
    for exps, value in acc.items():
        if value.denominator != 1:
            raise NonIntegerCoefficient(
                f"coefficient of {exps} is {value}; rationals failed to cancel"
            )
        if value:
            terms[exps] = int(value)
    return LaurentPolynomial(nvars, terms)


def fpoly_formula(tr: MutationTrace, n: int) -> LaurentPolynomial:
    """F_n as the closed-form sum over index sequences.

    Agrees exactly with the mutation recurrence; the empty sequence
    contributes the constant term 1.
    """
    if not 0 <= n <= tr.n:
        raise ValueError("n out of trace range")
    if n == 0:
        return LaurentPolynomial.one(tr.v)
    tables = _PairTables(tr, n)
    bound = _degree_bounds_from_trace(tr, n)
    rvecs = [tr.r(i) for i in range(1, n + 1)]
    acc = _formula_sum(n, rvecs, tables.tail, tables.pair, bound, tr.v)
    return _integerize(acc, tr.v)


def coefficient_of(tr: MutationTrace, n: int, monomial) -> int:
    """Coefficient of one monomial of F_n, summing only its own sequences."""
    monomial = tuple(monomial)
    if any(x < 0 for x in monomial):
        raise ValueError("monomial exponents must be nonnegative")
    if n == 0:
        return 1 if not any(monomial) else 0
    tables = _PairTables(tr, n)
    rvecs = [tr.r(i) for i in range(1, n + 1)]
    acc = _formula_sum(n, rvecs, tables.tail, tables.pair, monomial, tr.v)
    value = acc.get(monomial, Fraction(0))
    if value.denominator != 1:
        raise NonIntegerCoefficient(f"coefficient of {monomial} is {value}")
    return int(value)


def _power_truncated(p: LaurentPolynomial, e: int, bound) -> LaurentPolynomial:
    """p**e truncated componentwise, for any integer e and p = 1 + x.

    One binomial series sum_k C(e, k) x^k, one bounded multiply per power of
    x.  For e < 0 it ends once x^k has no term under the bound, which comes
    because x is a polynomial without constant term.
    """
    if p.constant_term != 1 or not p.is_polynomial():
        raise ValueError("binomial series needs a polynomial with constant term 1")
    x = p - 1
    acc = {(0,) * p.nvars: 1}
    power = LaurentPolynomial.one(p.nvars)
    binom = 1
    for k in range(e) if e >= 0 else count():
        binom = binom * (e - k) // (k + 1)
        power = mul_truncated(power, x, bound)
        if not power:
            break
        for exps, c in power.terms.items():
            acc[exps] = acc.get(exps, 0) + binom * c
    return LaurentPolynomial(p.nvars, acc)


def fpoly_product_form(tr: MutationTrace, n: int) -> LaurentPolynomial:
    """F_n as the truncated product prod_j L_j^{a(j,n)}.

    L_j = 1 + r_j * prod_{i<j} L_i^{-a(i,j)+b(i,j)}, expanded as power series
    in the y-variables and truncated at the degree bound of F_n.  Exponents
    only ever add, so truncating every intermediate at the final bound is
    lossless for the in-bound terms.  Each power L_i^e is one binomial
    series, built once per (i, e) within the call.
    """
    if not 0 <= n <= tr.n:
        raise ValueError("n out of trace range")
    if n == 0:
        return LaurentPolynomial.one(tr.v)
    tables = _PairTables(tr, n)
    bound = _degree_bounds_from_trace(tr, n)
    ells: list[LaurentPolynomial] = []
    powers: dict[tuple[int, int], LaurentPolynomial] = {}

    def times_power(poly: LaurentPolynomial, i: int, e: int) -> LaurentPolynomial:
        if not e:
            return poly
        if (i, e) not in powers:
            powers[(i, e)] = _power_truncated(ells[i - 1], e, bound)
        return mul_truncated(poly, powers[(i, e)], bound)

    for j in range(1, n + 1):
        term = truncate(LaurentPolynomial.monomial(tr.r(j)), bound)
        for i in range(1, j):
            if not term:
                break
            term = times_power(term, i, tables.pair(i, j))
        ells.append(LaurentPolynomial.one(tr.v) + term)
    result = LaurentPolynomial.one(tr.v)
    for j in range(1, n + 1):
        result = times_power(result, j, tables.tail(j))
    return result


def deform_matrix(tr: MutationTrace, n: int) -> intmat.Matrix:
    """The exponent action of the deformation at step n: e -> -C_n^{-1} e."""
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
    if not 1 <= n <= tr.n:
        raise ValueError("n out of trace range")
    if any(color == "red" for color in tr.colors[:n]):
        raise ValueError("deformed cutoff evaluation requires an all-green prefix")
    tables = _PairTables(tr, n)
    deform = deform_matrix(tr, n)
    rhos = []
    for w in range(n):
        rho = intmat.mat_vec(deform, tr.r(n - w))
        if any(x < 0 for x in rho) or not any(rho):
            raise SignCoherenceViolation(
                f"deformed r-monomial at offset {w} is not positive: {rho}"
            )
        rhos.append(rho)

    acc: dict[tuple[int, ...], Fraction] = {}

    def visit(start, exps, degree, w_prod, phi_den, seen):
        acc[exps] = acc.get(exps, Fraction(0)) + Fraction(w_prod, phi_den)
        for w in range(start, n):
            rho = rhos[w]
            new_degree = degree + sum(rho)
            if new_degree > cutoff:
                continue
            factor = tables.tail(n - w) + sum(
                tables.pair(n - w, n - e) for e in seen
            )
            new_w = w_prod * factor
            if new_w == 0:
                continue
            new_den = phi_den * (seen.count(w) + 1)
            visit(w, tuple(a + b for a, b in zip(exps, rho)), new_degree,
                  new_w, new_den, seen + [w])

    visit(0, (0,) * tr.v, 0, 1, 1, [])
    poly = _integerize(acc, tr.v)
    return dict(poly.terms)
