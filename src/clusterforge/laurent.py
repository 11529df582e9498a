"""Sparse Laurent polynomials with exact integer coefficients.

A polynomial in y1..yv is a finite map from integer exponent vectors to
nonzero integers.  Negative exponents are allowed (deformed polynomials use
them), coefficients never overflow, and printing follows a fixed order,
ascending total degree, then descending lexicographic, so output is
byte-stable across runs.  The text is built column by column: each
variable's exponents map through one table of factor strings, and the
columns then join into the monomials.

>>> p = LaurentPolynomial.variable(2, 1) + LaurentPolynomial.one(2)
>>> (p * p).to_text()
'1 + 2*y1 + y1^2'
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heappop, heappush
from operator import add, le, mul, sub
from typing import Iterable, Mapping

from .errors import InexactDivision, ParseError
from .intmat import exact_int, is_int

Exponents = tuple[int, ...]


def _from_clean(nvars: int, terms: dict[Exponents, int]) -> "LaurentPolynomial":
    """Wrap a dict of int exponent tuples to nonzero ints without re-checking it."""
    poly = object.__new__(LaurentPolynomial)
    object.__setattr__(poly, "nvars", nvars)
    object.__setattr__(poly, "terms", terms)
    return poly


def _check_nvars(nvars) -> int:
    """nvars itself when it is a nonnegative int: a non-int, bool included,
    is a TypeError (`exact_int`), and a negative count a ValueError."""
    if exact_int(nvars) < 0:
        raise ValueError(f"variable count {nvars} is negative")
    return nvars


def _span(terms) -> tuple[Exponents, Exponents]:
    """Componentwise minimum and maximum exponent vectors of nonempty terms."""
    columns = tuple(zip(*terms))
    return tuple(map(min, columns)), tuple(map(max, columns))


def _shift(nvars: int, terms, exps: Exponents, coeff: int) -> "LaurentPolynomial":
    """terms times the single term coeff*y^exps; a shift, so nothing collides."""
    return _from_clean(nvars, {tuple(map(add, e, exps)): c * coeff for e, c in terms.items()})


class _Factors(dict):
    """Factor text of one variable by exponent, from {0: "", 1: "*y3"}:
    "*y3^e" for any other e, each built on first use."""

    def __missing__(self, e: int) -> str:
        text = self[e] = f"{self[1]}^{e}"
        return text


def _factor_texts(exponents) -> list[str]:
    """Each exponent vector's factors, e.g. "*y1^2*y3" ("" for the zero
    vector), built column-wise: one map per variable through its _Factors,
    then one join per vector.  With no variables there are no columns."""
    columns = [map(_Factors({0: "", 1: f"*y{i}"}).__getitem__, column)
               for i, column in enumerate(zip(*exponents), 1)]
    return list(map("".join, zip(*columns))) if columns else [""] * len(exponents)


class _Packing:
    """Exponent vectors as ints: one slot per variable, degree on top.

    pack(e) is the sum of e_i << shift_i plus the total degree of e above
    the last slot.  It is linear, so pack(e) - pack(low) is the key of
    e - low, and such keys are well formed while 0 <= e - low <= span, the
    span the layout was made for.  Slot i has one bit more than span_i
    needs (a span of 0 costs one bit), so well-formed keys whose slots stay
    below twice the span add componentwise without carries, and comparing
    keys is a graded monomial order, one that multiplication preserves;
    key & below, the slots alone, orders lexicographically, last variable
    first.  The top bit of slot i is its guard bit: within(x, y) tests
    x <= y in every slot with one subtraction, since each slot of
    guards + y - x keeps its guard bit exactly when x_i <= y_i, provided
    its value 2^(width_i-1) + y_i - x_i lies in 0 .. 2^width_i - 1, so that
    no borrow crosses slots.  limit = guards + pack(span) is the box's.
    """

    __slots__ = ("span", "shifts", "masks", "top", "below", "weights", "guards", "limit")

    def __init__(self, span):
        self.span = span = tuple(span)
        self.shifts, self.masks, top, guards = [], [], 0, 0
        for x in span:
            width = x.bit_length() + 1
            self.shifts.append(top)
            self.masks.append((1 << width) - 1)
            top += width
            guards += 1 << (top - 1)
        self.top, self.below, self.guards = top, (1 << top) - 1, guards  # degree starts at top
        self.weights = [(1 << s) + (1 << top) for s in self.shifts]
        self.limit = guards + self.pack(span)

    def pack(self, exps) -> int:
        return sum(map(mul, exps, self.weights))

    def pack_within(self, terms) -> dict[int, int]:
        """The keys of the terms with e <= span, for nonnegative exponents e."""
        return {self.pack(e): c for e, c in terms.items() if all(map(le, e, self.span))}

    def unpack(self, key: int, low) -> Exponents:
        """The exponent vector low + e of the key of e."""
        return tuple([((key >> s) & m) + x for s, m, x in zip(self.shifts, self.masks, low)])

    def poly(self, terms, low) -> "LaurentPolynomial":
        """The polynomial of keys shifted by low, dropping zero coefficients.

        Unpacks column-wise: one pass over the keys per variable slot, then
        zip(*columns) joins the slots into exponent tuples in key order.
        With no variables there are no columns (and zip() yields nothing),
        so each key stands for the empty tuple.
        """
        keys = [k for k, c in terms.items() if c]
        columns = [[((k >> s) & m) + x for k in keys]
                   for s, m, x in zip(self.shifts, self.masks, low)]
        exps = zip(*columns) if low else [()] * len(keys)
        return _from_clean(len(low), dict(zip(exps, [terms[k] for k in keys])))

    def within(self, key: int, ceiling: int) -> bool:
        guards = self.guards
        return (guards + ceiling - key) & guards == guards


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial over the integers.

    The variable count, a variable index and every exponent and coefficient
    are ints, bool excluded (TypeError otherwise); a negative count is a
    ValueError.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, int] | None = None):
        _check_nvars(nvars)
        clean: dict[Exponents, int] = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has wrong length")
            if exact_int(coeff):
                clean[tuple(map(exact_int, exps))] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPolynomial":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "LaurentPolynomial":
        return _from_clean(_check_nvars(nvars), {(0,) * nvars: 1})

    @classmethod
    def constant(cls, nvars: int, value: int) -> "LaurentPolynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def monomial(cls, exps: Iterable[int], coeff: int = 1) -> "LaurentPolynomial":
        exps = tuple(exps)
        return cls(len(exps), {exps: coeff})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "LaurentPolynomial":
        """The variable y_index, 1-based."""
        _check_nvars(nvars)
        if not 1 <= exact_int(index) <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        exps = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return _from_clean(nvars, {exps: 1})

    # -- queries -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if is_int(other):
            other = LaurentPolynomial.constant(self.nvars, other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # mutable-dict backed; compare by value only

    def coefficient(self, exps: Iterable[int]) -> int:
        return self.terms.get(tuple(exps), 0)

    @property
    def constant_term(self) -> int:
        return self.terms.get((0,) * self.nvars, 0)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_vector(self) -> Exponents:
        """Componentwise maximum exponent over all terms (zero if empty)."""
        return _span(self.terms)[1] if self.terms else (0,) * self.nvars

    def min_exponent_vector(self) -> Exponents:
        return _span(self.terms)[0] if self.terms else (0,) * self.nvars

    def is_polynomial(self) -> bool:
        """True when no exponent is negative."""
        return all(e >= 0 for exps in self.terms for e in exps)

    def _print_order(self) -> list[Exponents]:
        """Ascending total degree, then descending lexicographic: two stable sorts."""
        order = sorted(self.terms, reverse=True)
        order.sort(key=sum)
        return order

    def sorted_terms(self) -> list[tuple[Exponents, int]]:
        """The terms in print order."""
        return [(e, self.terms[e]) for e in self._print_order()]

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "LaurentPolynomial":
        if isinstance(other, LaurentPolynomial):
            if other.nvars != self.nvars:
                raise ValueError("variable counts differ")
            return other
        if is_int(other):
            return LaurentPolynomial.constant(self.nvars, other)
        return NotImplemented

    def __add__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            new = terms.get(exps, 0) + coeff
            if new:
                terms[exps] = new
            else:
                terms.pop(exps, None)
        return _from_clean(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return _from_clean(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPolynomial":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPolynomial":
        """The product; a square (both operands on one terms dict) forms each
        unordered pair of terms once: c_i^2 at 2*k_i and 2*c_i*c_j at k_i + k_j.

        A product by the one-term 1 is the other operand itself, the twin of
        `__pow__`'s first power.
        """
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if len(self.terms) < len(other.terms):
            self, other = other, self
        a, b = self.terms, other.terms
        if len(b) <= 1:
            if not b:
                return LaurentPolynomial.zero(self.nvars)
            ((exps, coeff),) = b.items()
            if coeff == 1 and not any(exps):
                return self
            return _shift(self.nvars, a, exps, coeff)
        low_a, high_a = _span(a)
        low_b, high_b = (low_a, high_a) if a is b else _span(b)
        layout = _Packing(tuple(ha - la + hb - lb for la, ha, lb, hb in
                                zip(low_a, high_a, low_b, high_b)))
        pack = layout.pack
        base = pack(low_a) + pack(low_b)
        packed_b = [(pack(e), c) for e, c in b.items()]
        terms: dict[int, int] = {}
        get = terms.get
        if a is b:
            for i, (k1, c1) in enumerate(packed_b):
                k = k1 + k1 - base
                terms[k] = get(k, 0) + c1 * c1
                k1, c1 = k1 - base, c1 + c1
                for k2, c2 in packed_b[:i]:
                    k = k1 + k2
                    terms[k] = get(k, 0) + c1 * c2
        else:
            for e, c1 in a.items():
                k1 = pack(e) - base
                for k2, c2 in packed_b:
                    k = k1 + k2
                    terms[k] = get(k, 0) + c1 * c2
        return layout.poly(terms, tuple(map(add, low_a, low_b)))

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "LaurentPolynomial":
        """Repeated squaring; each square forms each unordered pair of terms once.

        The first power is the operand itself, which is immutable like every
        polynomial.
        """
        if not is_int(power):
            raise TypeError(f"power must be an int, not {power!r}")
        if power < 0:
            raise ValueError("negative powers are not defined on polynomials")
        if not power:
            return LaurentPolynomial.one(self.nvars)
        result, base = None, self  # the result starts from a power of the base, not from one
        while True:
            if power & 1:
                result = base if result is None else result * base
            power >>= 1
            if not power:
                return result
            base = base * base

    def map_exponents(self, fn) -> "LaurentPolynomial":
        """Apply fn to every exponent vector; colliding images are summed."""
        terms: dict[Exponents, int] = {}
        for exps, coeff in self.terms.items():
            image = tuple(fn(exps))
            new = terms.get(image, 0) + coeff
            if new:
                terms[image] = new
            else:
                terms.pop(image, None)
        return LaurentPolynomial(self.nvars, terms)

    # -- formatting ----------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text, e.g. '1 + 3*y1 + y1^3*y2^2', in print order:
        ascending total degree, then descending lexicographic.

        The monomials are built column-wise (`_factor_texts`): one map per
        variable through its table of factor texts, then one join per term.
        One pass then adds each sign and magnitude; a coefficient of 1 or -1
        prints no magnitude unless the term is the constant.

        >>> LaurentPolynomial(2, {(-1, 2): -3, (0, 0): 1, (2, 0): 1}).to_text()
        '1 - 3*y1^-1*y2^2 + y1^2'
        """
        if not self.terms:
            return "0"
        order = self._print_order()
        parts = []
        for factors, coeff in zip(_factor_texts(order), map(self.terms.__getitem__, order)):
            sign, mag = ("- ", -coeff) if coeff < 0 else ("+ ", coeff)
            parts.append(sign + factors[1:] if mag == 1 and factors else f"{sign}{mag}{factors}")
        text = " ".join(parts)
        return "-" + text[2:] if text[0] == "-" else text[2:]

    def to_json_terms(self) -> list[dict]:
        return [
            {"exponents": list(exps), "coeff": str(coeff)}
            for exps, coeff in self.sorted_terms()
        ]

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.to_text()!r})"


def _mul_within(layout: _Packing, outer: dict, inner: dict) -> dict[int, int]:
    """The in-box part of the product of two dicts of in-box keys of layout.

    The inner operand is sorted by its slots.  A pair (k1, k2) is in the
    box when limit - k1 - k2 keeps every guard bit; otherwise the highest
    failing guard names a slot j, and every later inner key that shares
    k2's slots above j has slot j at least k2's, so it fails too: one
    bisect jumps past all of them.  Only one failing pair is formed per run.
    """
    guards, limit, below = layout.guards, layout.limit, layout.below
    pairs = sorted(inner.items(), key=lambda kc: kc[0] & below)
    slots = [k & below for k, _ in pairs]
    size = len(pairs)
    terms: dict[int, int] = {}
    get = terms.get
    for k1, c1 in outer.items():
        room = limit - k1
        i = 0
        while i < size:
            k2, c2 = pairs[i]
            fail = guards & ~(room - k2)
            if fail:
                h = fail.bit_length()  # slots from bit h on lie above the failing one
                i = bisect_left(slots, ((slots[i] >> h) + 1) << h, i + 1)
            else:
                k = k1 + k2
                terms[k] = get(k, 0) + c1 * c2
                i += 1
    return {k: c for k, c in terms.items() if c}


def exact_divide(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    """Return p/q when q divides p exactly over the integers.

    Works in the Laurent ring: both operands are shifted by their minimum
    exponent vectors to polynomials p', q' with some exponent 0 in every
    variable, divided there, and the quotient is shifted back.  Raises
    InexactDivision otherwise.

    A one-term divisor c*y^e is a shift, the twin of the one-term path of
    `__mul__`: each term of p loses e from its exponents and is divided by
    c, which must divide every coefficient of p.  Nothing is packed and no
    heap is built.

    Heap-ordered division (Johnson, "Sparse polynomial arithmetic", SIGSAM
    Bull. 1974; Monagan and Pearce, "Sparse polynomial division using a
    heap", J. Symb. Comp. 2011): the remainder is a dict of packed keys, and
    a min-heap of negated keys yields its leading term in the keys' graded
    order; cancelled terms stay in the heap until they surface and are
    skipped (lazy deletion).  The order is multiplicative, so every term a
    step adds lies below the term it cancels, and each key enters the heap
    once.

    Box check: in an integral domain deg_i(AB) = deg_i(A) + deg_i(B), and
    likewise for minimum exponents, so every term m of an exact quotient
    lies in the box 0 <= m <= deg(p') - deg(q').  Two guard-bit
    subtractions check each quotient term against it, which also keeps
    every remainder key within deg(p') and so inside its slots.  The three
    rejections are a slot below the divisor's leading term, a slot past the
    box, and a coefficient that does not divide.
    """
    if p.nvars != q.nvars:
        raise ValueError("variable counts differ")
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p:
        return LaurentPolynomial.zero(p.nvars)
    if len(q.terms) == 1:
        ((exps, coeff),) = q.terms.items()
        if any(c % coeff for c in p.terms.values()):
            raise InexactDivision("leading coefficient is not divisible")
        return _from_clean(p.nvars, {tuple(map(sub, e, exps)): c // coeff
                                     for e, c in p.terms.items()})
    p_low, p_high = _span(p.terms)
    q_low, q_high = _span(q.terms)
    p_deg = tuple(map(sub, p_high, p_low))
    q_deg = tuple(map(sub, q_high, q_low))
    layout = _Packing(tuple(map(max, p_deg, q_deg)))
    pack = layout.pack
    box = pack(p_deg) - pack(q_deg)
    p_base, q_base = pack(p_low), pack(q_low)
    rem = {pack(e) - p_base: c for e, c in p.terms.items()}
    div = {pack(e) - q_base: c for e, c in q.terms.items()}
    lead = max(div)
    lead_coeff = div.pop(lead)
    heap = [-k for k in rem]
    heapify(heap)
    quotient: dict[int, int] = {}
    while heap:
        key = -heappop(heap)
        coeff = rem.pop(key)
        if not coeff:
            continue
        if not layout.within(lead, key):
            raise InexactDivision("leading monomial is not divisible")
        m = key - lead
        if not layout.within(m, box):
            raise InexactDivision("quotient term lies outside the degree box")
        coeff, remainder = divmod(coeff, lead_coeff)
        if remainder:
            raise InexactDivision("leading coefficient is not divisible")
        quotient[m] = coeff
        for k, c in div.items():
            target = m + k
            old = rem.get(target)
            if old is None:
                rem[target] = -coeff * c
                heappush(heap, -target)
            else:
                rem[target] = old - coeff * c
    return layout.poly(quotient, tuple(map(sub, p_low, q_low)))


def decimal_int(text: str) -> int:
    """The int that an ASCII decimal -?[0-9]+ spells, spaces around it allowed.

    Anything else is a ValueError, where `int` alone would read '1_0' as 10,
    a full-width digit as that digit, and '+1' as 1.
    """
    token = text.strip(" ")
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid decimal integer {text!r}")
    return int(token)


def parse_monomial(text: str, nvars: int) -> Exponents:
    """Parse a monomial like 'y1^3*y2' into an exponent vector."""
    exps = [0] * nvars
    text = text.strip(" ")
    if text in ("", "1"):
        return tuple(exps)
    for factor in text.split("*"):
        factor = factor.strip(" ")
        if factor == "1":
            continue
        if not factor.startswith("y"):
            raise ParseError(f"bad monomial factor {factor!r}")
        body = factor[1:]
        if "^" in body:
            idx_text, _, pow_text = body.partition("^")
        else:
            idx_text, pow_text = body, "1"
        try:
            index, power = decimal_int(idx_text), decimal_int(pow_text)
        except ValueError as exc:
            raise ParseError(f"bad monomial factor {factor!r}") from exc
        if not 1 <= index <= nvars:
            raise ParseError(f"variable y{index} out of range 1..{nvars}")
        exps[index - 1] += power
    return tuple(exps)
