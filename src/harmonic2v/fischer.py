"""Fischer projections and the Fischer inner product.

``double_fischer`` peels a bihomogeneous polynomial into double-harmonic
layers: p = sum_{i,j} |x|^{2i} |u|^{2j} part_{i,j}, each part killed by both
Laplacians.  The inner product <P, Q> = conj(P)(d_x, d_u) Q at x = u = 0 makes
multiplication by a variable and differentiation by it mutually adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import List, Sequence

from .errors import DimensionMismatch
from .operators import laplacian_u, laplacian_x, mul_normsq_u, mul_normsq_x
from .poly import Polynomial, exponents
from .rationals import GaussianRational, rising
from .transvector import chain, extremal_projection_s


def mul_norm_powers(p: Polynomial, a: int, b: int) -> Polynomial:
    """|x|^{2a} |u|^{2b} p."""
    return chain(p, (mul_normsq_u,) * b + (mul_normsq_x,) * a)


@dataclass(frozen=True)
class DoubleFischerComponent:
    """One layer |x|^{2i} |u|^{2j} * part of the double Fischer decomposition."""

    i: int
    j: int
    part: Polynomial


@lru_cache(maxsize=4096)  # a pure function of three small ints
def _layer_scale(degree: int, m: int, s: int) -> Fraction:
    """1 / (4^s s! (degree + m/2 - 2s)^(s)), the scalar of the |v|^{2s} Fischer
    layer |v|^{2s} pi_v Delta_v^s p of a p of degree ``degree`` in v."""
    return 1 / (4**s * factorial(s) * rising(Fraction(degree) + Fraction(m, 2) - 2 * s, s))


def _pi_ij(p: Polynomial, i: int, j: int) -> Polynomial:
    """Double-harmonic projection factor of the (i, j) layer (no norm powers)."""
    q = chain(p, (laplacian_u,) * j + (laplacian_x,) * i)
    if q.is_zero():
        return q
    k, l = p.bidegree()
    return extremal_projection_s(q).scaled(_layer_scale(k, p.m, i) * _layer_scale(l, p.m, j))


def double_fischer(p: Polynomial) -> List[DoubleFischerComponent]:
    """All nonzero layers of p = sum |x|^{2i} |u|^{2j} part_{i,j}, sorted by (i, j)."""
    if p.is_zero():
        return []
    bid = p.bidegree()
    if bid is None:
        raise ValueError("input must be bihomogeneous")
    k, l = bid
    out = []
    for i in range(k // 2 + 1):
        for j in range(l // 2 + 1):
            part = _pi_ij(p, i, j)
            if not part.is_zero():
                out.append(DoubleFischerComponent(i, j, part))
    return out


_FACTORIALS = [factorial(n) for n in range(64)]


def _mono_factorial(e: Sequence[int]) -> int:
    out = 1
    for k in e:
        if k:
            out *= _FACTORIALS[k] if k < 64 else factorial(k)
    return out


def fischer_inner_product(p: Polynomial, q: Polynomial) -> GaussianRational:
    """<P, Q> = conj(P)(d_x, d_u) Q |_{x=u=0}, evaluated exactly.

    Differentiating Q by a P-monomial and evaluating at zero picks the matching
    monomial of Q times its exponent factorials, so only the shared support
    contributes.
    """
    if p.m != q.m:
        raise DimensionMismatch("inner product of polynomials over different m")
    small = p if len(p._terms) <= len(q._terms) else q
    total_re = total_im = 0
    for e in small._terms:
        ab = p._terms.get(e)
        cd = q._terms.get(e)
        if ab is None or cd is None:
            continue
        f = _mono_factorial(exponents(e, p.m))
        a, b = ab
        c, d = cd
        # conj(a + bi) * (c + di) = (ac + bd) + (ad - bc) i
        total_re += (a * c + b * d) * f
        total_im += (a * d - b * c) * f
    den = p._den * q._den
    return GaussianRational(Fraction(total_re, den), Fraction(total_im, den))
