"""Reference implementations for the tests; no package code calls them.

* `greedy_coefficients` and `greedy_fpoly`: the greedy recursion of Lee, Li
  and Zelevinsky ("Greedy elements in rank 2 cluster algebras", Selecta
  Math. 2014, arXiv:1208.2391), which gives the coefficients of rank-2
  cluster variables with no C-matrices, traces or Laurent division:
  c(0, 0) = 1, and c(p, q) is the larger of

    sum_{k=1..p} (-1)^(k-1) c(p-k, q) C([a2 - c*q]_+ + k - 1, k)
    sum_{k=1..q} (-1)^(k-1) c(p, q-k) C([a1 - b*p]_+ + k - 1, k).

* `w_value`: the product W(n, w) of the closed formula, one sequence at a
  time, off the trace's pair coefficients.
* `enumerate_sequences`: the brute-force list of the index sequences that
  the stagewise sum kernel groups into states.
* `QuadraticNumber`: exact arithmetic in a real quadratic field, against
  which the integer norm filter of `limit_kr` is checked.
* `find_symmetrizer`: the symmetrizer by ratio propagation on `Fraction`
  weights, the reference for the integer propagation in `quiver`.
* `mutate_by_monomials`: a framed mutation whose exchange sides start from
  their frozen monomials and multiply in one label at a time, the reference
  for the single numerator of `quiver.mutate`.
* `recurrence_step_by_step`: the F-polynomial recurrence with a `mutate`
  call at every step, the reference for `quiver.fpoly_recurrence`, which
  skips every step that undoes the one before it.
* `labels_after`: the vertex labels after a sequence, read off the
  recurrence's F_1..F_n, the reference for the point queries of
  `stabilization.fundamentals`.
* `degree_bound_walk`: F_n's degree bound from a walk of the first n steps
  alone, the reference for the trace's one walk of every prefix.
* `mat_mul_entrywise`: the matrix product one entry at a time, each a sum
  over the inner index, the reference for `intmat.mat_mul`'s row sums.
* `limit_gale_robinson_per_entry`: the Gale-Robinson limit with every entry
  of every rho(w) read off the scalar sequence on its own, the reference
  for the one window-sliced read of `stabilization.limit_gale_robinson`.
* `gale_robinson_splittings`: s_i of G_{v,r,t} as the count of splittings
  i = a*r + b*(v-r), the reference for the one-read rule of
  `SSequence.gale_robinson`.
* `reference_trace`: the trace with every step derived afresh from
  B_{i-1}, the vertex and the color, on dense step rows, the reference for
  `cmatrix.trace`, which derives each distinct step once.
* `text_per_term`: the canonical text with one factor list per term, the
  reference for the column-wise `LaurentPolynomial.to_text`.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, le

from clusterforge import LaurentPolynomial, exact_divide
from clusterforge import intmat
from clusterforge.cmatrix import (MutationTrace, _check_step, _column_color, _step_rows,
                                  coeff_a, pair_term)
from clusterforge.errors import ConsistencyError, InexactDivision, NotSkewSymmetrizable
from clusterforge.families import SSequence, _family_sum, build_gale_robinson
from clusterforge.quiver import (FramedState, GeneralizedQuiver, _check_symmetrizer,
                                 _check_vertex, framed_state, mutate, mutate_b, mutate_c)


def greedy_coefficients(a1: int, a2: int, b: int, c: int) -> dict[tuple[int, int], int]:
    """The nonzero c(p, q) for 0 <= p <= a2 and 0 <= q <= a1."""
    table = {(0, 0): 1}
    for p in range(a2 + 1):
        for q in range(a1 + 1):
            if p or q:
                down, left = max(a2 - c * q, 0) - 1, max(a1 - b * p, 0) - 1
                table[p, q] = max(
                    sum((-1) ** (k - 1) * table[p - k, q] * comb(down + k, k)
                        for k in range(1, p + 1) if table[p - k, q]),
                    sum((-1) ** (k - 1) * table[p, q - k] * comb(left + k, k)
                        for k in range(1, q + 1) if table[p, q - k]))
    return {key: value for key, value in table.items() if value}


def greedy_fpoly(a1: int, a2: int, b: int, c: int) -> dict[tuple[int, int], int]:
    """The F-polynomial terms {(a1 - q, p): c(p, q)} of the greedy element at (a1, a2)."""
    return {(a1 - q, p): value for (p, q), value in greedy_coefficients(a1, a2, b, c).items()}


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


def degree_bound_walk(tr: MutationTrace, n: int) -> tuple[int, ...]:
    """F_n's componentwise degree bound, the exchange relation in max-plus
    over steps 1..n only: products add, sums take maxima, division subtracts."""
    _check_step(tr, n)
    v = tr.v
    bounds = [(0,) * v for _ in range(v)]
    for step in range(n):
        kk = tr.seq[step] - 1
        r = list(tr.r_monomials[step])
        green = tr.colors[step] == "green"
        deg_in = r if green else [0] * v
        deg_out = [0] * v if green else r
        for j, b in enumerate(tr.b_mats[step][kk]):
            if b > 0:
                deg_out = [x + b * y for x, y in zip(deg_out, bounds[j])]
            elif b < 0:
                deg_in = [x - b * y for x, y in zip(deg_in, bounds[j])]
        bounds[kk] = tuple(max(a, b) - c for a, b, c in zip(deg_in, deg_out, bounds[kk]))
    return bounds[tr.seq[n - 1] - 1] if n else (0,) * v


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


def find_symmetrizer(b) -> tuple[int, ...]:
    """Positive integer d with diag(d)*b skew-symmetric, on Fraction weights.

    Depth-first from each unreached vertex, d_j = d_i * (-b[i][j] / b[j][i]);
    each component is cleared of denominators and divided by its gcd.
    """
    n = len(b)
    weights = [None] * n
    for root in range(n):
        if weights[root] is not None:
            continue
        weights[root] = Fraction(1)
        stack = [root]
        component = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if b[i][j] == 0 and b[j][i] == 0:
                    continue
                if b[i][j] == 0 or b[j][i] == 0 or (b[i][j] > 0) == (b[j][i] > 0):
                    raise NotSkewSymmetrizable(
                        f"entries ({i + 1},{j + 1}) cannot be symmetrized"
                    )
                ratio = Fraction(-b[i][j], b[j][i])
                if weights[j] is None:
                    weights[j] = weights[i] * ratio
                    stack.append(j)
                    component.append(j)
                elif weights[j] != weights[i] * ratio:
                    raise NotSkewSymmetrizable("inconsistent ratios around a cycle")
        denom = lcm(*(weights[i].denominator for i in component))
        scaled = [int(weights[i] * denom) for i in component]
        shrink = gcd(*scaled)
        for i, value in zip(component, scaled):
            weights[i] = Fraction(value, shrink)
    return tuple(int(w) for w in weights)


def mutate_by_monomials(state: FramedState, k: int) -> FramedState:
    """Framed mutation at 1-based vertex k, the exchange sides built from monomials.

    S1 starts from prod_i y_i^max(c[i][k], 0) and S2 from
    prod_i y_i^max(-c[i][k], 0); S1 takes each label V_j^(-b[k][j]) with
    b[k][j] < 0 and S2 each V_j^b[k][j] with b[k][j] > 0, one factor V_j at
    a time; the new label is (S1 + S2) / V_k.
    """
    q, c, kk = state.quiver, state.c, k - 1
    s_in = LaurentPolynomial.monomial(max(row[kk], 0) for row in c)
    s_out = LaurentPolynomial.monomial(max(-row[kk], 0) for row in c)
    for label, x in zip(state.labels, q.b[kk]):
        for _ in range(abs(x)):
            if x > 0:
                s_out = s_out * label
            else:
                s_in = s_in * label
    labels = list(state.labels)
    labels[kk] = exact_divide(s_in + s_out, state.labels[kk])
    return FramedState(GeneralizedQuiver(mutate_b(q.b, kk), q.d),
                       mutate_c(c, q.b, kk), tuple(labels))


def recurrence_step_by_step(q: GeneralizedQuiver, seq) -> list[LaurentPolynomial]:
    """F_1..F_n with one `mutate` per step, each F_i checked to be a positive
    polynomial with constant term 1."""
    state = framed_state(q)
    out = []
    for step, k in enumerate(seq, start=1):
        state = mutate(state, k)
        f = state.labels[k - 1]
        if not f.is_polynomial():
            raise InexactDivision(f"F_{step} has negative exponents")
        if f.constant_term != 1 or any(c <= 0 for c in f.terms.values()):
            raise InexactDivision(f"F_{step} is not a positive polynomial with unit constant")
        out.append(f)
    return out


def labels_after(seq, fs, v: int) -> list[LaurentPolynomial]:
    """Labels after mutating along seq: at k, F_i of the last step i at k, else 1."""
    labels = [LaurentPolynomial.one(v)] * v
    for k, f in zip(seq, fs):
        labels[k - 1] = f
    return labels


def mat_mul_entrywise(a, b):
    """a*b entry by entry; a b with no rows is 0x0."""
    n, m = len(a), len(b[0]) if b else 0
    k = len(b)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def limit_gale_robinson_per_entry(v: int, r: int, t: int, cutoff: int) -> LaurentPolynomial:
    """The limit of G_{v,r,t} with rho(w)_i = s_{w-v+i} read one entry at a time."""
    q = build_gale_robinson(v, r, t)  # the certified quiver; checks the parameters
    ss = SSequence.gale_robinson(v, r, t)
    w_max = r * (cutoff * (v - r) + 1) + v
    rhos = [tuple(ss.s(w - v + i) for i in range(1, v + 1)) for w in range(w_max + 1)]
    return _family_sum(q.b, ss, rhos, (cutoff,) * v, cutoff)


def gale_robinson_splittings(v: int, r: int, i: int) -> int:
    """The number of pairs a, b >= 0 with i = a*r + b*(v-r); 0 for i < 0."""
    return sum(1 for a in range(i // r + 1) if (i - a * r) % (v - r) == 0) if i >= 0 else 0


def _dense_row_times(row, m):
    """The row vector row * m, summed over the rows of m that row selects."""
    acc = [0] * len(m)
    for s, r in zip(row, m):
        if s:
            acc = [a + s * x for a, x in zip(acc, r)]
    return tuple(acc)


def _dense_times_step(m, row, k):
    """m * S for the step matrix S with row k equal to the dense row."""
    nonzero = [(j, s) for j, s in enumerate(row) if s and j != k]
    out = []
    for r in m:
        x = r[k]
        if x:
            new = list(r)
            new[k] = -x
            for j, s in nonzero:
                new[j] += x * s
            r = tuple(new)
        out.append(r)
    return tuple(out)


def reference_trace(q: GeneralizedQuiver, seq) -> MutationTrace:
    """`cmatrix.trace` with the step rows, the frozen-arrow rule and B_i
    derived again at every step, checked against the simulation as it goes."""
    seq = tuple(seq)
    v = q.v
    for k in seq:
        _check_vertex(k, v)
    _check_symmetrizer(q.b, q.d)
    b = q.b
    c = cinv = c_sim = intmat.identity(v)
    b_mats, c_mats, cinv_mats = [b], [c], [cinv]
    colors, r_monomials = [], []
    for k in seq:
        kk = k - 1
        col = [row[kk] for row in c]
        color = _column_color(col, kk)
        a_row, _ = _step_rows(b, kk, 1 if color == "green" else -1)
        c = _dense_times_step(c, a_row, kk)
        cinv = cinv[:kk] + (_dense_row_times(a_row, cinv),) + cinv[kk + 1:]
        c_sim = mutate_c(c_sim, b, kk)
        if c_sim != c:
            raise ConsistencyError(
                f"C-matrix product disagrees with the frozen-arrow simulation "
                f"at step {len(colors) + 1}"
            )
        b = mutate_b(b, kk)
        colors.append(color)
        r_monomials.append(tuple(map(abs, col)))
        b_mats.append(b)
        c_mats.append(c)
        cinv_mats.append(cinv)
    return MutationTrace(q, seq, *map(tuple, (b_mats, c_mats, cinv_mats, colors, r_monomials)))


class _Powers(dict):
    """Factor strings of one variable by exponent, from {1: name}, each built on first use."""

    def __missing__(self, e: int) -> str:
        text = self[e] = f"{self[1]}^{e}"
        return text


def text_per_term(p: LaurentPolynomial) -> str:
    """Canonical text, e.g. '1 + 3*y1 + y1^3*y2^2'; each factor string
    is built once per (variable, exponent)."""
    if not p.terms:
        return "0"
    powers = [_Powers({1: f"y{i + 1}"}) for i in range(p.nvars)]
    parts = []
    for exps, coeff in p.sorted_terms():
        factors = [pw[e] for pw, e in zip(powers, exps) if e]
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        parts.append(("- " if coeff < 0 else "+ ") + "*".join(factors))
    text = " ".join(parts)
    return "-" + text[2:] if text[0] == "-" else text[2:]
