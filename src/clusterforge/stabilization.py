"""Deformed polynomials, fundamental monomials, convergence, and limits.

The deformed polynomial S_n applies -C_n^{-1} to every exponent vector of
F_n.  Along an all-green periodic mutation sequence the coefficients of
S_i, S_{i+p}, ... settle down monomial by monomial; `stabilization_run`
observes this empirically under a total-degree cutoff, and the `limit_*`
functions evaluate the closed-form limits for specific families.  All
comparisons involving the quadratic unit p = (r + sqrt(r^2-4))/2 are done
in exact arithmetic, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import intmat
from .closedform import deformed_coefficients, phi
from .cmatrix import MutationTrace, trace
from .errors import BadParameters, ConsistencyError, RedStepEncountered
from .families import FamilySpec, SSequence, _family_params, _family_sum
from .intmat import Matrix
from .laurent import LaurentPolynomial, _from_clean
from .quiver import GeneralizedQuiver, fpoly_recurrence


def deform(f: LaurentPolynomial, c: Matrix) -> LaurentPolynomial:
    """Send every exponent vector of f through -C^{-1}; coefficients unchanged."""
    cinv = intmat.inverse_unimodular(c)
    return f.map_exponents(
        lambda exps: tuple(-x for x in intmat.mat_vec(cinv, exps))
    )


def is_polynomial(s: LaurentPolynomial):
    """Verdict plus the offending monomials with negative exponents."""
    offenders = sorted(
        (exps for exps in s.terms if any(e < 0 for e in exps)),
        key=lambda e: (sum(e), e),
    )
    return (not offenders, offenders)


@dataclass(frozen=True)
class FundamentalInfo:
    monomial: tuple[int, ...]
    first_step: int
    fundamental: bool
    green: int
    red: int
    coefficient_check: bool | None


@dataclass(frozen=True)
class FundamentalSet:
    entries: tuple[FundamentalInfo, ...]

    def fundamentals(self) -> list[tuple[int, ...]]:
        return [e.monomial for e in self.entries if e.fundamental]


def _decomposable(target, parts) -> bool:
    """Can target be a sum of >= 2 vectors from parts (with repetition)?

    Bounded dynamic program over the exponent box below target.
    """
    parts = [p for p in set(parts) if any(p) and all(a <= b for a, b in zip(p, target))]
    if not parts:
        return False
    reachable = {}  # vector -> min number of parts used

    def explore(vec, count):
        if count >= 2 and not any(vec):
            return True
        seen = reachable.get(vec)
        if seen is not None and seen <= count:
            return False
        reachable[vec] = count
        for p in parts:
            rest = tuple(a - b for a, b in zip(vec, p))
            if all(x >= 0 for x in rest) and explore(rest, count + 1):
                return True
        return False

    return explore(tuple(target), 0)


def _labels_after(seq, fs, v: int) -> list[LaurentPolynomial]:
    """Labels after mutating along seq: at k, F_i of the last step i at k, else 1."""
    labels = [LaurentPolynomial.one(v)] * v
    for k, f in zip(seq, fs):
        labels[k - 1] = f
    return labels


def fundamentals(tr: MutationTrace, n: int, verify: bool = True,
                 fs: list[LaurentPolynomial] | None = None) -> FundamentalSet:
    """Fundamental flags and color counts for the distinct r-monomials.

    A monomial is fundamental when it is not a sum of two or more of the
    r-monomials r_1..r_n (the closed formula sums over every nondecreasing
    sequence in 1..n, so a later r-monomial decomposes an earlier one too).
    With verify=True the coefficient identity is checked: for each
    fundamental m the coefficients of m across all vertex labels after n
    steps must equal -(green - red) * C_n^{-1}(m).  The identity is a
    skew-symmetric statement (it needs C = D), so the check is skipped for
    genuinely skew-symmetrizable quivers.  The labels come from fs, the
    F-polynomials F_1..F_n of the recurrence along tr.seq, which it computes
    only when fs is not given.
    """
    if not 0 <= n <= tr.n:
        raise ValueError("n out of trace range")
    verify = verify and tr.quiver.is_skew_symmetric
    first_seen: dict[tuple[int, ...], int] = {}
    greens: dict[tuple[int, ...], int] = {}
    reds: dict[tuple[int, ...], int] = {}
    flags: dict[tuple[int, ...], bool] = {}
    rmonos = [tr.r(j) for j in range(1, n + 1)]
    for i, m in enumerate(rmonos, start=1):
        if m not in first_seen:
            flags[m] = not _decomposable(m, rmonos)
            first_seen[m] = i
            greens[m] = reds[m] = 0
        if tr.color(i) == "green":
            greens[m] += 1
        else:
            reds[m] += 1

    labels = None
    if verify and n > 0:
        if fs is None:
            fs = fpoly_recurrence(tr.quiver, tr.seq[:n])
        labels = _labels_after(tr.seq[:n], fs, tr.v)

    entries = []
    for m, step in sorted(first_seen.items(), key=lambda kv: kv[1]):
        check = None
        if labels is not None and flags[m]:
            expected = tuple(
                -(greens[m] - reds[m]) * x for x in intmat.mat_vec(tr.cinv_mats[n], m)
            )
            actual = tuple(label.coefficient(m) for label in labels)
            check = expected == actual
        entries.append(
            FundamentalInfo(m, step, flags[m], greens[m], reds[m], check)
        )
    return FundamentalSet(tuple(entries))


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
    fset = fundamentals(tr, n, verify=verify)
    fund = [e for e in fset.entries if e.fundamental]
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
    for i, color in enumerate(tr.colors, start=1):
        if color == "red":
            raise RedStepEncountered(f"step {i} (vertex {tr.vertex(i)}) is red")

    indices = tuple(p * (k + 1) for k in range(count))

    per_index = [deformed_coefficients(tr, n, cutoff) for n in indices]

    monomials = sorted(
        {m for coeffs in per_index for m in coeffs},
        key=lambda m: (sum(m), m),
    )
    histories = {
        m: tuple(coeffs.get(m, 0) for coeffs in per_index) for m in monomials
    }
    verdicts = {}
    for m, hist in histories.items():
        settle = len(hist) - 1
        while settle > 0 and hist[settle - 1] == hist[-1]:
            settle -= 1
        verdicts[m] = indices[settle] if settle <= len(hist) - 2 else None
    return StabilizationReport(p, indices, cutoff, histories, verdicts)


# -- exact quadratic arithmetic ----------------------------------------------


@dataclass(frozen=True)
class QuadraticNumber:
    """Exact element a + b*sqrt(disc) of a real quadratic field, disc > 0."""

    a: Fraction
    b: Fraction
    disc: int

    @classmethod
    def of(cls, a, b, disc: int) -> "QuadraticNumber":
        return cls(Fraction(a), Fraction(b), int(disc))

    def _coerce(self, other) -> "QuadraticNumber":
        if isinstance(other, int):
            other = QuadraticNumber.of(other, 0, self.disc)
        if self.disc != other.disc:
            raise ValueError("mixed discriminants")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return QuadraticNumber(self.a + other.a, self.b + other.b, self.disc)

    def __sub__(self, other):
        other = self._coerce(other)
        return QuadraticNumber(self.a - other.a, self.b - other.b, self.disc)

    def __mul__(self, other):
        other = self._coerce(other)
        return QuadraticNumber(
            self.a * other.a + self.b * other.b * self.disc,
            self.a * other.b + self.b * other.a,
            self.disc,
        )

    def __pow__(self, e: int) -> "QuadraticNumber":
        if e < 0:
            raise ValueError("negative powers not needed")
        result = QuadraticNumber.of(1, 0, self.disc)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def sign(self) -> int:
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # opposite signs: compare a^2 against b^2 * disc
        lead = a * a - b * b * self.disc
        if a > 0:
            return 1 if lead > 0 else -1
        return 1 if lead < 0 else -1

    def __le__(self, other) -> bool:
        return (self - other).sign() <= 0

    def __lt__(self, other) -> bool:
        return (self - other).sign() < 0


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
    """
    (r,) = _family_params(FamilySpec.of("kr", r=r))
    intmat.check_count(cutoff, "cutoff")
    if r == 2:
        return limit_a1r(1, cutoff)
    ss = SSequence.kronecker(r)
    # s is strictly increasing, so the entries that fit the cutoff are 0..m-1
    m = 0
    while ss.s(m) + ss.s(m - 1) <= cutoff:
        m += 1
    rhos = [(ss.s(w), ss.s(w - 1)) for w in range(m)]
    poly = _family_sum(ss, rhos, (cutoff, cutoff), cutoff)

    def within_norm(e1, e2):
        x = 2 * (e1 - 1) - r * e2
        return x <= 0 or x * x <= e2 * e2 * (r * r - 4)

    return _from_clean(2, {e: c for e, c in poly.terms.items() if within_norm(*e)})


def limit_gale_robinson(v: int, r: int, t: int, cutoff: int) -> LaurentPolynomial:
    """Stabilized deformed polynomial of G_{v,r,t}, truncated by total degree.

    Same sequence sum as the finite formula with the tail frozen at s_{w_i}:
    factors s_{w_i} + sum_{j<i} (-s_d - s_{d-v} + s_{d-t} + s_{d-v+t}) with
    d = w_i - w_j, on the monomial prod_i y_i^{s_{w-v+i}}.  The variables are
    framed so the result matches stabilization runs inspected at indices
    divisible by v directly; dp1_coefficient uses the reversed frame.
    """
    v, r, t = _family_params(FamilySpec.of("gr", v=v, r=r, t=t))
    intmat.check_count(cutoff, "cutoff")
    ss = SSequence.gale_robinson(v, r, t)
    # deg rho(w) >= floor(w/r) / (v-r), so entries beyond w_max cannot fit
    w_max = r * (cutoff * (v - r) + 1) + v
    rhos = [tuple(ss.s(w - v + i) for i in range(1, v + 1)) for w in range(w_max + 1)]
    return _family_sum(ss, rhos, (cutoff,) * v, cutoff)


def dp1_coefficient(a: int, b: int, c: int, d: int) -> int:
    """Coefficient of y1^a y2^b y3^c y4^d in the dP1 = G_{4,2,1} limit.

    Contributing sequences split into a-c even entries 2q with the q summing
    to c and b-d odd entries 2q+1 with the q summing to d; each sequence is
    weighted like limit_gale_robinson(4, 2, 1).  The exponent indices here
    follow the reversed variable frame, so this equals the coefficient of
    y1^d y2^c y3^b y4^a in limit_gale_robinson(4, 2, 1, ...).
    """
    if min(a, b, c, d) < 0 or a - c < 0 or b - d < 0:
        return 0
    ss = SSequence.gale_robinson(4, 2, 1)

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

    total = Fraction(0)
    for evens in partitions(c, a - c):
        for odds in partitions(d, b - d):
            w = sorted([2 * q for q in evens] + [2 * q + 1 for q in odds])
            w_prod = 1
            for i, wi in enumerate(w):
                factor = ss.s(wi) + sum(
                    -ss.s(wi - wj) - ss.s(wi - wj - 4) + ss.s(wi - wj - 1)
                    + ss.s(wi - wj - 3)
                    for wj in w[:i]
                )
                w_prod *= factor
            total += phi(w) * w_prod
    if total.denominator != 1:
        raise ConsistencyError(f"dp1 coefficient {total} is not integral")
    return int(total)


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
