"""Sparse exact polynomials in two vector variables x_1..x_m, u_1..u_m.

Coefficients live in Q(i).  Internally a polynomial stores Gaussian-integer
numerators over one shared positive denominator, which keeps the hot loops in
machine-integer arithmetic; ``GaussianRational`` values appear only at the API
boundary.

Each term is keyed by one packed ``int``: one byte per variable, read
big-endian as the exponent word x_1..x_m, u_1..u_m, so ``key.to_bytes(2m,
"big")`` is the exponent tuple and comparing keys compares exponent words
lexicographically.  No term's total degree exceeds ``MAX_TERM_DEGREE`` (127),
so the top bit of every byte stays clear: adding two keys multiplies the
monomials without a carry into a neighbouring field, shifting an exponent is
adding ``+-c << field_shift(...)``, and, since 256 = 1 (mod 255), a key's
total degree is ``key % FIELD_MASK`` (its x- and u-degrees are that of its
upper and lower halves).  Every operation that raises a degree checks the limit first
and raises ``ExponentOutOfRange``.

``+``, ``-`` and negation call the one accumulation kernel,
``operators.linear_combination``; only the product accumulates its own terms here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Dict, Iterator, Optional, Sequence, Tuple

from .errors import DimensionMismatch, ExponentOutOfRange, VariableOutOfRange
from .rationals import GaussianRational, fraction_text, gaussian_text

#: Term dict: packed monomial key -> Gaussian-integer numerator (re, im).
RawTerms = Dict[int, Tuple[int, int]]

#: Largest total degree of one term.  It keeps every exponent below the top
#: bit of its byte and every degree sum below 255 (see the module docstring).
MAX_TERM_DEGREE = 127

#: Bits of one exponent field in a packed key: one byte.
FIELD_BITS = 8
#: Mask of one field, and the modulus that sums a key's fields.
FIELD_MASK = (1 << FIELD_BITS) - 1


def field_shift(m: int, axis: str, index: int) -> int:
    """Bit offset of the exponent of x_index or u_index (1-based) in a key."""
    return FIELD_BITS * ((m if axis == "x" else 0) + m - index)


def exponents(key: int, m: int) -> bytes:
    """The 2m exponents of a packed key, x-part then u-part."""
    return key.to_bytes(2 * m, "big")


def _graded_lex(key: int) -> Tuple[int, int]:
    """Sort key of ``terms()``: total degree, then the exponent word."""
    return key % FIELD_MASK, key


@lru_cache(maxsize=None)
def _field_names(m: int) -> Tuple[str, ...]:
    """The variable of every exponent field of a key: x1..xm, then u1..um."""
    return tuple(f"{axis}{i}" for axis in "xu" for i in range(1, m + 1))


#: Power suffix of one factor of a monomial's text, indexed by its exponent.
_POWER = ("", "") + tuple(f"^{e}" for e in range(2, MAX_TERM_DEGREE + 1))


def _monomial_text(fields: bytes, m: int) -> str:
    """The text of the monomial with exponent word ``fields``: "x1*u2^3", or "1"."""
    names = _field_names(m)
    return "*".join([names[f] + _POWER[e] for f, e in enumerate(fields) if e]) or "1"


def _checked_key(exps: Sequence[int]) -> int:
    """Pack an exponent word, rejecting what a key cannot hold."""
    try:
        fields = bytes(exps)  # TypeError unless integers, ValueError outside 0..255
    except (TypeError, ValueError):
        fields = None
    if fields is None or sum(fields) > MAX_TERM_DEGREE:
        raise ExponentOutOfRange(
            f"exponents {tuple(exps)} are not non-negative integers of total degree"
            f" at most {MAX_TERM_DEGREE}"
        )
    return int.from_bytes(fields, "big")


@dataclass(frozen=True)
class Monomial:
    """A power product of the 2m variables, split into x- and u-exponents."""

    xexp: Tuple[int, ...]
    uexp: Tuple[int, ...]

    def __post_init__(self):
        if len(self.xexp) != len(self.uexp):
            raise DimensionMismatch("x- and u-exponent vectors differ in length")
        _checked_key(self.xexp + self.uexp)

    def key(self) -> int:
        """The packed key of this monomial."""
        return _checked_key(self.xexp + self.uexp)

    @property
    def m(self) -> int:
        return len(self.xexp)

    def __str__(self) -> str:
        return _monomial_text(bytes(self.xexp + self.uexp), self.m)


def _normalize(terms: RawTerms, den: int) -> Tuple[RawTerms, int]:
    """Canonicalize an owned term dict in place: prune zeros and divide out the
    global content, which the pruning pass also finds.  ``den`` must be
    positive; every producer keeps it so."""
    g = den
    dead = []
    for e, (a, b) in terms.items():
        if a or b:
            if g != 1:
                g = gcd(g, a, b)
        else:
            dead.append(e)
    for e in dead:
        del terms[e]
    if not terms:
        return {}, 1
    if g > 1:
        for e, (a, b) in terms.items():
            terms[e] = (a // g, b // g)
        den //= g
    return terms, den


_UNSET = object()


class Polynomial:
    """An immutable sparse polynomial over Q(i) in 2m variables."""

    __slots__ = ("m", "_terms", "_den", "_bid")

    def __init__(self, m: int, terms: Optional[Dict[Monomial, object]] = None):
        if m < 1:
            raise DimensionMismatch(f"ambient dimension must be >= 1, got {m}")
        raw, den = _build_raw(m, terms) if terms else ({}, 1)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_terms", raw)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_bid", _UNSET)

    def __setattr__(self, *args):
        raise AttributeError("Polynomial is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def _packed(cls, m: int, terms: RawTerms, den: int) -> "Polynomial":
        """Build from an owned dict keyed by packed monomial keys."""
        terms, den = _normalize(terms, den)
        obj = object.__new__(cls)
        object.__setattr__(obj, "m", m)
        object.__setattr__(obj, "_terms", terms)
        object.__setattr__(obj, "_den", den)
        object.__setattr__(obj, "_bid", _UNSET)
        return obj

    @classmethod
    def zero(cls, m: int) -> "Polynomial":
        return cls(m)

    @classmethod
    def constant(cls, m: int, value) -> "Polynomial":
        if m < 1:
            raise DimensionMismatch(f"ambient dimension must be >= 1, got {m}")
        a, b, den = _numerators(value)
        return cls._packed(m, {0: (a, b)}, den)

    @classmethod
    def variable(cls, m: int, axis: str, index: int) -> "Polynomial":
        """The single variable x_index or u_index (1-based index)."""
        if axis not in ("x", "u"):
            raise ValueError("axis must be 'x' or 'u'")
        if not 1 <= index <= m:
            raise VariableOutOfRange(f"{axis}{index} out of range for m={m}")
        return cls._packed(m, {1 << field_shift(m, axis, index): (1, 0)}, 1)

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def _value(self, key: int) -> GaussianRational:
        """The coefficient of the packed key ``key``, zero when it is absent."""
        ab = self._terms.get(key)
        if ab is None:
            return GaussianRational()
        return GaussianRational(Fraction(ab[0], self._den), Fraction(ab[1], self._den))

    def terms(self) -> Iterator[Tuple[Monomial, GaussianRational]]:
        m = self.m
        for key in sorted(self._terms, key=_graded_lex):
            e = exponents(key, m)
            yield Monomial(tuple(e[:m]), tuple(e[m:])), self._value(key)

    def term_strings(self) -> Iterator[Tuple[str, str]]:
        """``(str(mono), str(coeff))`` of every term, in ``terms()`` order,
        rendered straight from the packed keys and integer numerators."""
        m = self.m
        den = self._den
        for key in sorted(self._terms, key=_graded_lex):
            a, b = self._terms[key]
            yield _monomial_text(exponents(key, m), m), gaussian_text(a, b, den)

    def coefficient(self, mono: Monomial) -> GaussianRational:
        if mono.m != self.m:
            raise DimensionMismatch("monomial length does not match m")
        return self._value(mono.key())

    def constant_term(self) -> GaussianRational:
        return self._value(0)

    def term_count(self) -> int:
        return len(self._terms)

    def bidegree(self) -> Optional[Tuple[int, int]]:
        """The (x-degree, u-degree) pair if bihomogeneous and nonzero, else None."""
        cached = self._bid
        if cached is not _UNSET:
            return cached
        half = FIELD_BITS * self.m
        low = (1 << half) - 1
        seen = None
        for k in self._terms:
            d = ((k >> half) % FIELD_MASK, (k & low) % FIELD_MASK)
            if seen is None:
                seen = d
            elif seen != d:
                seen = None
                break
        object.__setattr__(self, "_bid", seen)
        return seen

    def bidegree_split(self) -> Dict[Tuple[int, int], "Polynomial"]:
        """Split into bihomogeneous parts; the parts sum back to the polynomial."""
        m = self.m
        half = FIELD_BITS * m
        low = (1 << half) - 1
        buckets: Dict[Tuple[int, int], RawTerms] = {}
        for k, ab in self._terms.items():
            buckets.setdefault(((k >> half) % FIELD_MASK, (k & low) % FIELD_MASK), {})[k] = ab
        return {
            d: Polynomial._packed(m, raw, self._den) for d, raw in sorted(buckets.items())
        }

    def total_degree(self) -> int:
        return max((k % FIELD_MASK for k in self._terms), default=0)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return _operators.linear_combination(self.m, ((1, None, self), (1, None, other)))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return _operators.linear_combination(self.m, ((1, None, self), (-1, None, other)))

    def __neg__(self) -> "Polynomial":
        return _operators.linear_combination(self.m, ((-1, None, self),))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.m != other.m:
                raise DimensionMismatch(f"dimension mismatch: {self.m} vs {other.m}")
            # Q(i) has no zero divisors, so the product's degree is the sum.
            if self._terms and other._terms:
                degree = self.total_degree() + other.total_degree()
                if degree > MAX_TERM_DEGREE:
                    raise ExponentOutOfRange(
                        f"product of degree {degree} exceeds the maximum {MAX_TERM_DEGREE}"
                    )
            out: RawTerms = {}
            for e1, (a1, b1) in self._terms.items():
                for e2, (a2, b2) in other._terms.items():
                    e = e1 + e2
                    a = a1 * a2 - b1 * b2
                    b = a1 * b2 + b1 * a2
                    cur = out.get(e)
                    if cur is None:
                        out[e] = (a, b)
                    else:
                        out[e] = (cur[0] + a, cur[1] + b)
            return Polynomial._packed(self.m, out, self._den * other._den)
        return self.scaled(other)

    __rmul__ = __mul__

    def scaled(self, scalar) -> "Polynomial":
        ar, ai, den_c = _numerators(scalar)
        if ai:
            out = {
                e: (a * ar - b * ai, a * ai + b * ar) for e, (a, b) in self._terms.items()
            }
        elif ar:
            out = {e: (a * ar, b * ar) for e, (a, b) in self._terms.items()}
        else:
            return Polynomial.zero(self.m)
        return Polynomial._packed(self.m, out, self._den * den_c)

    def conjugate(self) -> "Polynomial":
        """Conjugate every coefficient (variables untouched)."""
        out = {e: (a, -b) for e, (a, b) in self._terms.items()}
        return Polynomial._packed(self.m, out, self._den)

    def swap_vectors(self) -> "Polynomial":
        """Exchange the roles of x and u."""
        half = FIELD_BITS * self.m
        low = (1 << half) - 1
        out = {((k & low) << half) | (k >> half): ab for k, ab in self._terms.items()}
        return Polynomial._packed(self.m, out, self._den)

    # -- comparison / display -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.m == other.m and self._den == other._den and self._terms == other._terms

    def __hash__(self):
        return hash((self.m, self._den, frozenset(self._terms.items())))

    def __str__(self) -> str:
        """The polynomial in the ``--poly`` grammar, highest term first."""
        m = self.m
        den = self._den
        chunks = []
        for key in sorted(self._terms, key=_graded_lex, reverse=True):
            a, b = self._terms[key]
            # A real or pure imaginary coefficient's sign becomes the term's operator.
            neg = (a < 0) if not b else (not a and b < 0)
            if neg:
                a, b = -a, -b
            coeff = _grammar_text(a, b, den)
            if not key:
                body = coeff
            else:
                mono = _monomial_text(exponents(key, m), m)
                body = mono if coeff == "1" else f"{coeff}*{mono}"
            if chunks:
                chunks.append(" - " if neg else " + ")
            elif neg:
                chunks.append("-")
            chunks.append(body)
        return "".join(chunks) or "0"

    def __repr__(self) -> str:
        return f"Polynomial(m={self.m}, {self})"


def _numerators(value) -> Tuple[int, int, int]:
    """(a, b, d) with value = (a + b i) / d, for an int, a ``Fraction`` or a
    ``GaussianRational``; d is the lcm of the two part denominators."""
    if isinstance(value, GaussianRational):
        re, im = value.re, value.im
        dr, di = re.denominator, im.denominator
        d = dr * di // gcd(dr, di)
        return re.numerator * (d // dr), im.numerator * (d // di), d
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return value.numerator, 0, value.denominator


def _build_raw(m: int, terms: Dict[Monomial, object]) -> Tuple[RawTerms, int]:
    """Numerators over the lcm of the coefficients' denominators.  Distinct
    monomials have distinct keys, and ``_normalize`` prunes zero coefficients."""
    staged = []
    den = 1
    for mono, coeff in terms.items():
        if mono.m != m:
            raise DimensionMismatch("monomial length does not match m")
        a, b, dc = _numerators(coeff)
        staged.append((mono.key(), a, b, dc))
        den = den // gcd(den, dc) * dc
    raw = {e: (a * (den // dc), b * (den // dc)) for e, a, b, dc in staged}
    return _normalize(raw, den)


def _grammar_text(a: int, b: int, den: int) -> str:
    """(a + b i) / den for den > 0 in the ``--poly`` grammar, which parses it
    back: "-3/2", "-1/2*i", "(1-2*i)"."""
    if not b:
        return fraction_text(a, den)
    imag = "i" if abs(b) == den else fraction_text(abs(b), den) + "*i"
    if not a:
        return imag if b > 0 else "-" + imag
    return "(" + fraction_text(a, den) + ("+" if b > 0 else "-") + imag + ")"


# Bound last, since ``operators`` imports this module; looked up at each call.
from . import operators as _operators  # noqa: E402
