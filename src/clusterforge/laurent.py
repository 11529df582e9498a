"""Sparse Laurent polynomials with exact integer coefficients.

A polynomial in y1..yv is a finite map from integer exponent vectors to
nonzero integers.  Negative exponents are allowed (deformed polynomials use
them), coefficients never overflow, and printing follows a fixed graded
lexicographic order so output is byte-stable across runs.

>>> p = LaurentPolynomial.variable(2, 1) + LaurentPolynomial.one(2)
>>> (p * p).to_text()
'1 + 2*y1 + y1^2'
"""

from __future__ import annotations

from operator import add, gt, itemgetter
from typing import Iterable, Mapping

from .errors import InexactDivision, ParseError

Exponents = tuple[int, ...]


def _grlex_key(exps: Exponents):
    # ascending total degree, then descending lexicographic within a degree
    return (sum(exps), tuple(-e for e in exps))


def _from_clean(nvars: int, terms: dict[Exponents, int]) -> "LaurentPolynomial":
    """Wrap a dict of int exponent tuples to nonzero ints without re-checking it."""
    poly = object.__new__(LaurentPolynomial)
    object.__setattr__(poly, "nvars", nvars)
    object.__setattr__(poly, "terms", terms)
    return poly


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial over the integers."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, int] | None = None):
        clean: dict[Exponents, int] = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has wrong length")
            coeff = int(coeff)
            if coeff:
                clean[tuple(int(e) for e in exps)] = coeff
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
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def constant(cls, nvars: int, value: int) -> "LaurentPolynomial":
        return cls(nvars, {(0,) * nvars: int(value)})

    @classmethod
    def monomial(cls, exps: Iterable[int], coeff: int = 1) -> "LaurentPolynomial":
        exps = tuple(int(e) for e in exps)
        return cls(len(exps), {exps: coeff})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "LaurentPolynomial":
        """The variable y_index, 1-based."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        exps = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return cls(nvars, {exps: 1})

    # -- queries -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
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
        if not self.terms:
            return (0,) * self.nvars
        return tuple(max(e[i] for e in self.terms) for i in range(self.nvars))

    def min_exponent_vector(self) -> Exponents:
        if not self.terms:
            return (0,) * self.nvars
        return tuple(min(e[i] for e in self.terms) for i in range(self.nvars))

    def is_polynomial(self) -> bool:
        """True when no exponent is negative."""
        return all(e >= 0 for exps in self.terms for e in exps)

    def sorted_terms(self) -> list[tuple[Exponents, int]]:
        return sorted(self.terms.items(), key=lambda item: _grlex_key(item[0]))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "LaurentPolynomial":
        if isinstance(other, LaurentPolynomial):
            if other.nvars != self.nvars:
                raise ValueError("variable counts differ")
            return other
        if isinstance(other, int):
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
        return LaurentPolynomial(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPolynomial":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[Exponents, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                new = terms.get(exps, 0) + c1 * c2
                if new:
                    terms[exps] = new
                else:
                    terms.pop(exps, None)
        return LaurentPolynomial(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "LaurentPolynomial":
        if power < 0:
            raise ValueError("negative powers are not defined on polynomials")
        result = LaurentPolynomial.one(self.nvars)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base if power > 1 else base
            power >>= 1
        return result

    def map_exponents(self, fn) -> "LaurentPolynomial":
        """Apply fn to every exponent vector; colliding images are summed."""
        terms: dict[Exponents, int] = {}
        for exps, coeff in self.terms.items():
            image = tuple(int(x) for x in fn(exps))
            new = terms.get(image, 0) + coeff
            if new:
                terms[image] = new
            else:
                terms.pop(image, None)
        return LaurentPolynomial(self.nvars, terms)

    def exact_div(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial":
        return exact_divide(self, divisor)

    # -- formatting ----------------------------------------------------------

    def to_text(self, var: str = "y") -> str:
        """Canonical text, e.g. '1 + 3*y1 + y1^3*y2^2'."""
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = [
                f"{var}{i + 1}" if e == 1 else f"{var}{i + 1}^{e}"
                for i, e in enumerate(exps)
                if e != 0
            ]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            parts.append(("- " if coeff < 0 else "+ ") + body)
        first = parts[0]
        text = ("-" + first[2:]) if first.startswith("- ") else first[2:]
        for part in parts[1:]:
            text += " " + part
        return text

    def to_json_terms(self) -> list[dict]:
        return [
            {"exponents": list(exps), "coeff": str(coeff)}
            for exps, coeff in self.sorted_terms()
        ]

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.to_text()!r})"


def truncate(p: LaurentPolynomial, bound) -> LaurentPolynomial:
    """The terms of p whose exponent vectors lie componentwise within bound."""
    bound = tuple(bound)
    return _from_clean(
        p.nvars, {e: c for e, c in p.terms.items() if not any(map(gt, e, bound))}
    )


def mul_truncated(p: LaurentPolynomial, q: LaurentPolynomial, bound) -> LaurentPolynomial:
    """truncate(p * q, bound), forming only pairs that can land within bound.

    Unless one operand is a single term, both must have nonnegative
    exponents: then a term outside the bound stays outside in any product
    and is skipped, and q is scanned in ascending total degree up to the
    degree the p term leaves over (Johnson, "Sparse polynomial arithmetic",
    SIGSAM Bull. 1974).  Exponent vectors are packed into ints, one slot per
    variable with one bit more than the largest bound b needs: a sum x of two
    in-bound exponents (x <= 2b) never carries, and the top (guard) bit of
    each slot of (2^(w-1) + b) - x is set exactly when x <= b.
    """
    if p.nvars != q.nvars:
        raise ValueError("variable counts differ")
    bound = tuple(bound)
    if len(p.terms) == 1:
        p, q = q, p
    if len(q.terms) == 1:
        # a shift by one monomial is injective, so no two terms collide
        ((e2, c2),) = q.terms.items()
        shifted = {tuple(map(add, e1, e2)): c1 * c2 for e1, c1 in p.terms.items()}
        return truncate(_from_clean(p.nvars, shifted), bound)
    if not (p.is_polynomial() and q.is_polynomial()):
        raise ValueError("bounded multiply needs nonnegative exponents")
    width = max(bound, default=0).bit_length() + 1
    shifts = range(0, width * p.nvars, width)
    guards = sum(1 << (s + width - 1) for s in shifts)
    limit = guards + sum(b << s for b, s in zip(bound, shifts))

    def pack(poly):
        return [(sum(e), sum(x << s for x, s in zip(e, shifts)), c)
                for e, c in poly.terms.items() if not any(map(gt, e, bound))]

    inner = sorted(pack(q), key=itemgetter(0))
    total = sum(bound)
    terms: dict[int, int] = {}
    for d1, k1, c1 in pack(p):
        budget = total - d1
        for d2, k2, c2 in inner:
            if d2 > budget:
                break
            k = k1 + k2
            if (limit - k) & guards == guards:
                terms[k] = terms.get(k, 0) + c1 * c2
    mask = (1 << width) - 1
    return _from_clean(
        p.nvars,
        {tuple((k >> s) & mask for s in shifts): c for k, c in terms.items() if c},
    )


def exact_divide(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    """Return p/q when q divides p exactly over the integers.

    Works in the Laurent ring: both operands are shifted to nonnegative
    exponents, divided by leading-term elimination in graded-lex order, and
    the quotient is shifted back.  Raises InexactDivision otherwise.
    """
    if p.nvars != q.nvars:
        raise ValueError("variable counts differ")
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p:
        return LaurentPolynomial.zero(p.nvars)
    p_shift = p.min_exponent_vector()
    q_shift = q.min_exponent_vector()
    rem = {tuple(e - s for e, s in zip(exps, p_shift)): c for exps, c in p.terms.items()}
    div = {tuple(e - s for e, s in zip(exps, q_shift)): c for exps, c in q.terms.items()}
    lead_q = max(div, key=_grlex_key)
    lead_q_coeff = div[lead_q]
    quotient: dict[Exponents, int] = {}
    while rem:
        lead_r = max(rem, key=_grlex_key)
        exps = tuple(a - b for a, b in zip(lead_r, lead_q))
        if any(e < 0 for e in exps):
            raise InexactDivision("leading monomial is not divisible")
        coeff, remainder = divmod(rem[lead_r], lead_q_coeff)
        if remainder:
            raise InexactDivision("leading coefficient is not divisible")
        quotient[exps] = coeff
        for d_exps, d_coeff in div.items():
            target = tuple(a + b for a, b in zip(exps, d_exps))
            new = rem.get(target, 0) - coeff * d_coeff
            if new:
                rem[target] = new
            else:
                rem.pop(target, None)
    out_shift = tuple(a - b for a, b in zip(p_shift, q_shift))
    return LaurentPolynomial(
        p.nvars,
        {tuple(e + s for e, s in zip(exps, out_shift)): c for exps, c in quotient.items()},
    )


def parse_monomial(text: str, nvars: int, var: str = "y") -> Exponents:
    """Parse a monomial like 'y1^3*y2' into an exponent vector."""
    exps = [0] * nvars
    text = text.strip()
    if text in ("", "1"):
        return tuple(exps)
    for factor in text.split("*"):
        factor = factor.strip()
        if factor == "1":
            continue
        if not factor.startswith(var):
            raise ParseError(f"bad monomial factor {factor!r}")
        body = factor[len(var):]
        if "^" in body:
            idx_text, _, pow_text = body.partition("^")
        else:
            idx_text, pow_text = body, "1"
        try:
            index, power = int(idx_text), int(pow_text)
        except ValueError as exc:
            raise ParseError(f"bad monomial factor {factor!r}") from exc
        if not 1 <= index <= nvars:
            raise ParseError(f"variable {var}{index} out of range 1..{nvars}")
        exps[index - 1] += power
    return tuple(exps)
