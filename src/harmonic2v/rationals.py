"""Exact scalars: Gaussian rationals and Pochhammer-type products."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Union

Rationalish = Union[int, Fraction]


@dataclass(frozen=True, eq=False)
class GaussianRational:
    """An element of Q(i): rational real and imaginary parts, each in lowest terms.

    ``Fraction`` guarantees lowest terms with a positive denominator, so every
    stored value is canonical and equality is structural.  Comparisons against
    plain ints and Fractions treat them as real values.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", Fraction(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", Fraction(self.im))

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash(self.re) if not self.im else hash((self.re, self.im))

    @staticmethod
    def of(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(Fraction(value))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.of(other)
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * GaussianRational(other.re / norm, -other.im / norm)

    def __rtruediv__(self, other):
        return GaussianRational.of(other) / self

    def __str__(self) -> str:
        dr, di = self.re.denominator, self.im.denominator
        return gaussian_text(self.re.numerator * di, self.im.numerator * dr, dr * di)


def fraction_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0."""
    g = gcd(n, d)
    try:
        return str(n // g) if g == d else f"{n // g}/{d // g}"
    except ValueError:  # more digits than sys.get_int_max_str_digits() converts
        import sys

        raise ValueError(
            f"a coefficient exceeds the limit of {sys.get_int_max_str_digits()} digits"
        ) from None


def gaussian_text(a: int, b: int, den: int) -> str:
    """The text of (a + b i) / den for den > 0: "3/2", "-i", "1/2-2/3i"."""
    if not b:
        return fraction_text(a, den)
    imag = "i" if abs(b) == den else fraction_text(abs(b), den) + "i"
    if not a:
        return imag if b > 0 else "-" + imag
    return fraction_text(a, den) + ("+" if b > 0 else "-") + imag


GAUSSIAN_I = GaussianRational(Fraction(0), Fraction(1))


def rising(a, n: int) -> Fraction:
    """Upper factorial a^(n) = a (a+1) ... (a+n-1); empty product for n = 0."""
    if n < 0:
        raise ValueError("rising factorial needs n >= 0")
    out = Fraction(1)
    a = Fraction(a)
    for t in range(n):
        out *= a + t
    return out


def falling(a, n: int) -> Fraction:
    """Lower factorial a_(n) = a (a-1) ... (a-n+1) = (a-n+1)^(n)."""
    if n < 0:
        raise ValueError("falling factorial needs n >= 0")
    return rising(Fraction(a) - n + 1, n)
