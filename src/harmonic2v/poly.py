"""Sparse exact polynomials in two vector variables x_1..x_m, u_1..u_m.

Coefficients live in Q(i).  Internally a polynomial stores Gaussian-integer
numerators over one shared positive denominator, which keeps the hot loops in
machine-integer arithmetic; ``GaussianRational`` values appear only at the API
boundary.  Term keys are exponent tuples of length 2m (x-part then u-part).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, Iterator, Optional, Tuple

from .errors import DimensionMismatch, VariableOutOfRange
from .rationals import GaussianRational

RawTerms = Dict[Tuple[int, ...], Tuple[int, int]]


@dataclass(frozen=True)
class Monomial:
    """A power product of the 2m variables, split into x- and u-exponents."""

    xexp: Tuple[int, ...]
    uexp: Tuple[int, ...]

    def __post_init__(self):
        if len(self.xexp) != len(self.uexp):
            raise DimensionMismatch("x- and u-exponent vectors differ in length")

    @property
    def m(self) -> int:
        return len(self.xexp)

    def degree(self) -> Tuple[int, int]:
        return sum(self.xexp), sum(self.uexp)

    def sort_key(self):
        # Graded lexicographic: total degree first, then the exponent word.
        kx, ku = self.degree()
        return (kx + ku, self.xexp + self.uexp)

    def __lt__(self, other: "Monomial") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        parts = []
        for name, exps in (("x", self.xexp), ("u", self.uexp)):
            for i, e in enumerate(exps):
                if e == 1:
                    parts.append(f"{name}{i + 1}")
                elif e > 1:
                    parts.append(f"{name}{i + 1}^{e}")
        return "*".join(parts) if parts else "1"


def _normalize(terms: RawTerms, den: int) -> Tuple[RawTerms, int]:
    """Canonicalize an owned term dict in place: prune zeros, make the shared
    denominator positive, divide out the global content."""
    dead = [e for e, ab in terms.items() if not ab[0] and not ab[1]]
    for e in dead:
        del terms[e]
    if not terms:
        return {}, 1
    if den < 0:
        den = -den
        for e, (a, b) in terms.items():
            terms[e] = (-a, -b)
    g = den
    for a, b in terms.values():
        if a:
            g = gcd(g, a)
        if b:
            g = gcd(g, b)
        if g == 1:
            return terms, den
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
        raw: RawTerms = {}
        den = 1
        if terms:
            for mono in terms:
                if mono.m != m:
                    raise DimensionMismatch("monomial length does not match m")
            raw, den = _build_raw(m, terms)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_terms", raw)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_bid", _UNSET)

    def __setattr__(self, *args):
        raise AttributeError("Polynomial is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def _raw(cls, m: int, terms: RawTerms, den: int) -> "Polynomial":
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
        zero_exp = (0,) * (2 * m)
        c = GaussianRational.of(value)
        den = c.re.denominator * c.im.denominator // gcd(c.re.denominator, c.im.denominator)
        a = c.re.numerator * (den // c.re.denominator)
        b = c.im.numerator * (den // c.im.denominator)
        return cls._raw(m, {zero_exp: (a, b)}, den)

    @classmethod
    def variable(cls, m: int, axis: str, index: int) -> "Polynomial":
        """The single variable x_index or u_index (1-based index)."""
        if axis not in ("x", "u"):
            raise ValueError("axis must be 'x' or 'u'")
        if not 1 <= index <= m:
            raise VariableOutOfRange(f"{axis}{index} out of range for m={m}")
        exp = [0] * (2 * m)
        exp[(0 if axis == "x" else m) + index - 1] = 1
        return cls._raw(m, {tuple(exp): (1, 0)}, 1)

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> Iterator[Tuple[Monomial, GaussianRational]]:
        m = self.m
        den = self._den
        for e in sorted(self._terms, key=lambda e: (sum(e), e)):
            a, b = self._terms[e]
            yield Monomial(e[:m], e[m:]), GaussianRational(Fraction(a, den), Fraction(b, den))

    def coefficient(self, mono: Monomial) -> GaussianRational:
        if mono.m != self.m:
            raise DimensionMismatch("monomial length does not match m")
        ab = self._terms.get(mono.xexp + mono.uexp)
        if ab is None:
            return GaussianRational()
        return GaussianRational(Fraction(ab[0], self._den), Fraction(ab[1], self._den))

    def constant_term(self) -> GaussianRational:
        ab = self._terms.get((0,) * (2 * self.m))
        if ab is None:
            return GaussianRational()
        return GaussianRational(Fraction(ab[0], self._den), Fraction(ab[1], self._den))

    def term_count(self) -> int:
        return len(self._terms)

    def bidegree(self) -> Optional[Tuple[int, int]]:
        """The (x-degree, u-degree) pair if bihomogeneous and nonzero, else None."""
        cached = self._bid
        if cached is not _UNSET:
            return cached
        m = self.m
        seen = None
        for e in self._terms:
            d = (sum(e[:m]), sum(e[m:]))
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
        buckets: Dict[Tuple[int, int], RawTerms] = {}
        for e, ab in self._terms.items():
            buckets.setdefault((sum(e[:m]), sum(e[m:])), {})[e] = ab
        return {
            d: Polynomial._raw(m, raw, self._den) for d, raw in sorted(buckets.items())
        }

    def total_degree(self) -> int:
        return max((sum(e) for e in self._terms), default=0)

    # -- arithmetic ----------------------------------------------------------

    def _check_same(self, other: "Polynomial"):
        if self.m != other.m:
            raise DimensionMismatch(f"dimension mismatch: {self.m} vs {other.m}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same(other)
        d1, d2 = self._den, other._den
        g = gcd(d1, d2)
        f1, f2 = d2 // g, d1 // g
        out: RawTerms = (
            {e: (a * f1, b * f1) for e, (a, b) in self._terms.items()} if f1 != 1 else dict(self._terms)
        )
        for e, (a, b) in other._terms.items():
            a *= f2
            b *= f2
            cur = out.get(e)
            if cur is None:
                out[e] = (a, b)
            else:
                out[e] = (cur[0] + a, cur[1] + b)
        return Polynomial._raw(self.m, out, d1 * f1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.m, {e: (-a, -b) for e, (a, b) in self._terms.items()}, self._den)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_same(other)
            out: RawTerms = {}
            for e1, (a1, b1) in self._terms.items():
                for e2, (a2, b2) in other._terms.items():
                    e = tuple(x + y for x, y in zip(e1, e2))
                    a = a1 * a2 - b1 * b2
                    b = a1 * b2 + b1 * a2
                    cur = out.get(e)
                    if cur is None:
                        out[e] = (a, b)
                    else:
                        out[e] = (cur[0] + a, cur[1] + b)
            return Polynomial._raw(self.m, out, self._den * other._den)
        return self.scaled(other)

    __rmul__ = __mul__

    def scaled(self, scalar) -> "Polynomial":
        if isinstance(scalar, int):
            if not scalar:
                return Polynomial.zero(self.m)
            out = {e: (a * scalar, b * scalar) for e, (a, b) in self._terms.items()}
            return Polynomial._raw(self.m, out, self._den)
        if isinstance(scalar, Fraction):
            num, den_c = scalar.numerator, scalar.denominator
            if not num:
                return Polynomial.zero(self.m)
            out = {e: (a * num, b * num) for e, (a, b) in self._terms.items()}
            return Polynomial._raw(self.m, out, self._den * den_c)
        c = GaussianRational.of(scalar)
        if c.is_zero():
            return Polynomial.zero(self.m)
        dr, di = c.re.denominator, c.im.denominator
        den_c = dr * di // gcd(dr, di)
        ar = c.re.numerator * (den_c // dr)
        ai = c.im.numerator * (den_c // di)
        if ai == 0:
            out = {e: (a * ar, b * ar) for e, (a, b) in self._terms.items()}
        else:
            out = {
                e: (a * ar - b * ai, a * ai + b * ar) for e, (a, b) in self._terms.items()
            }
        return Polynomial._raw(self.m, out, self._den * den_c)

    def conjugate(self) -> "Polynomial":
        """Conjugate every coefficient (variables untouched)."""
        return Polynomial._raw(self.m, {e: (a, -b) for e, (a, b) in self._terms.items()}, self._den)

    def partial(self, axis: str, index: int) -> "Polynomial":
        """Exact partial derivative with respect to x_index or u_index (1-based)."""
        if axis not in ("x", "u"):
            raise ValueError("axis must be 'x' or 'u'")
        if not 1 <= index <= self.m:
            raise VariableOutOfRange(f"{axis}{index} out of range for m={self.m}")
        pos = (0 if axis == "x" else self.m) + index - 1
        out: RawTerms = {}
        for e, (a, b) in self._terms.items():
            k = e[pos]
            if not k:
                continue
            ne = e[:pos] + (k - 1,) + e[pos + 1 :]
            cur = out.get(ne)
            if cur is None:
                out[ne] = (a * k, b * k)
            else:
                out[ne] = (cur[0] + a * k, cur[1] + b * k)
        return Polynomial._raw(self.m, out, self._den)

    def swap_vectors(self) -> "Polynomial":
        """Exchange the roles of x and u."""
        m = self.m
        return Polynomial._raw(
            self.m, {e[m:] + e[:m]: ab for e, ab in self._terms.items()}, self._den
        )

    def evaluate(self, xs, us) -> complex:
        """Numerically evaluate at a point (floating point; for oracles only)."""
        m = self.m
        total = 0j
        for e, (a, b) in self._terms.items():
            v = complex(a, b)
            for i in range(m):
                if e[i]:
                    v *= xs[i] ** e[i]
                if e[m + i]:
                    v *= us[i] ** e[m + i]
            total += v
        return total / self._den

    # -- comparison / display -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.m == other.m and self._den == other._den and self._terms == other._terms

    def __hash__(self):
        return hash((self.m, self._den, frozenset(self._terms.items())))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for mono, coeff in sorted(self.terms(), key=lambda t: t[0].sort_key(), reverse=True):
            chunks.append(_render_term(mono, coeff, first=not chunks))
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial(m={self.m}, {self})"


def _build_raw(m: int, terms: Dict[Monomial, object]) -> Tuple[RawTerms, int]:
    den = 1
    staged = []
    for mono, coeff in terms.items():
        c = GaussianRational.of(coeff)
        if c.is_zero():
            continue
        dr, di = c.re.denominator, c.im.denominator
        dc = dr * di // gcd(dr, di)
        staged.append((mono.xexp + mono.uexp, c, dc))
        den = den // gcd(den, dc) * dc
    raw: RawTerms = {}
    for e, c, _ in staged:
        a = c.re.numerator * (den // c.re.denominator)
        b = c.im.numerator * (den // c.im.denominator)
        cur = raw.get(e)
        if cur is None:
            raw[e] = (a, b)
        else:
            raw[e] = (cur[0] + a, cur[1] + b)
    return _normalize(raw, den)


def _render_coeff_grammar(c: GaussianRational) -> str:
    """Render a coefficient so the CLI grammar can re-parse it."""
    if not c.im:
        return str(c.re)
    if not c.re:
        q = c.im
        if q == 1:
            return "i"
        if q == -1:
            return "-i"
        return f"{q}*i"
    im = "i" if abs(c.im) == 1 else f"{abs(c.im)}*i"
    sign = "+" if c.im > 0 else "-"
    return f"({c.re}{sign}{im})"


def _render_term(mono: Monomial, coeff: GaussianRational, first: bool) -> str:
    mono_str = str(mono)
    cs = _render_coeff_grammar(coeff)
    neg = cs.startswith("-") and not cs.startswith("(")
    if neg:
        cs = cs[1:]
    if mono_str == "1":
        body = cs
    elif cs == "1":
        body = mono_str
    else:
        body = f"{cs}*{mono_str}"
    if first:
        return ("-" if neg else "") + body
    return (" - " if neg else " + ") + body


def variables(m: int):
    """All 2m variables as polynomials: ([x1..xm], [u1..um])."""
    xs = [Polynomial.variable(m, "x", i) for i in range(1, m + 1)]
    us = [Polynomial.variable(m, "u", i) for i in range(1, m + 1)]
    return xs, us
