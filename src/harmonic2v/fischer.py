"""Fischer projections and the Fischer inner product.

``double_fischer`` peels a bihomogeneous polynomial into double-harmonic
layers: p = sum_{i,j} |x|^{2i} |u|^{2j} part_{i,j}, each part killed by both
Laplacians.  The inner product <P, Q> = conj(P)(d_x, d_u) Q at x = u = 0 makes
multiplication by a variable and differentiation by it mutually adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, List, Sequence, Tuple

from .errors import DimensionMismatch
from .operators import laplacian_u, laplacian_x, mul_normsq_u, mul_normsq_x
from .poly import Polynomial
from .rationals import GaussianRational, rising
from .transvector import chain, extremal_projection_s, extremal_projection_u, extremal_projection_x


def mul_norm_powers(p: Polynomial, a: int, b: int) -> Polynomial:
    """|x|^{2a} |u|^{2b} p."""
    return chain(p, (mul_normsq_u,) * b + (mul_normsq_x,) * a)


@dataclass(frozen=True)
class DoubleFischerComponent:
    """One layer |x|^{2i} |u|^{2j} * part of the double Fischer decomposition."""

    i: int
    j: int
    part: Polynomial

    def embedded(self) -> Polynomial:
        return mul_norm_powers(self.part, self.i, self.j)


def sphere_fischer_project(p: Polynomial, s: int, axis: str = "x") -> Polynomial:
    """The |v|^{2s}-harmonic layer of a bihomogeneous polynomial (v = x or u).

    Returns |v|^{2s} H with H harmonic in v; summing over s recovers p.
    """
    if s < 0:
        raise ValueError("layer index must be non-negative")
    bid = p.bidegree()
    if p.is_zero():
        return p
    if bid is None:
        raise ValueError("input must be bihomogeneous")
    k = bid[0] if axis == "x" else bid[1]
    lap = laplacian_x if axis == "x" else laplacian_u
    mul_norm = mul_normsq_x if axis == "x" else mul_normsq_u
    pi = extremal_projection_x if axis == "x" else extremal_projection_u

    q = chain(p, (lap,) * s)
    if q.is_zero():
        return q
    # Gamma(E + m/2 - 2s) / Gamma(E + m/2 - s) at the (degree-neutral) image.
    scale = Fraction(1, 4**s * factorial(s)) / rising(Fraction(k) + Fraction(p.m, 2) - 2 * s, s)
    return chain(pi(q), (mul_norm,) * s).scaled(scale)


def _pi_ij(p: Polynomial, i: int, j: int) -> Polynomial:
    """Double-harmonic projection factor of the (i, j) layer (no norm powers)."""
    q = chain(p, (laplacian_u,) * j + (laplacian_x,) * i)
    if q.is_zero():
        return q
    k, l = p.bidegree()
    m = p.m
    scale = Fraction(1, 4 ** (i + j) * factorial(i) * factorial(j))
    scale /= rising(Fraction(k) + Fraction(m, 2) - 2 * i, i)
    scale /= rising(Fraction(l) + Fraction(m, 2) - 2 * j, j)
    return extremal_projection_s(q).scaled(scale)


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


def _mono_factorial(e: Tuple[int, ...]) -> int:
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
    small, big = (p, q) if len(p._terms) <= len(q._terms) else (q, p)
    total_re = Fraction(0)
    total_im = Fraction(0)
    for e, _ in small._terms.items():
        ab = p._terms.get(e)
        cd = q._terms.get(e)
        if ab is None or cd is None:
            continue
        f = _mono_factorial(e)
        a, b = ab
        c, d = cd
        # conj(a + bi) * (c + di) = (ac + bd) + (ad - bc) i
        total_re += Fraction((a * c + b * d) * f)
        total_im += Fraction((a * d - b * c) * f)
    den = p._den * q._den
    return GaussianRational(total_re / den, total_im / den)


def fischer_inner_product_by_differentiation(p: Polynomial, q: Polynomial) -> GaussianRational:
    """Reference path: literally apply conj(P)(d) to Q and read the constant term.

    Slow; kept as the independent oracle for ``fischer_inner_product``.
    """
    if p.m != q.m:
        raise DimensionMismatch("inner product of polynomials over different m")
    m = p.m
    total = GaussianRational()
    for mono, coeff in p.terms():
        d = q
        for i, e in enumerate(mono.xexp):
            for _ in range(e):
                d = d.partial("x", i + 1)
        for i, e in enumerate(mono.uexp):
            for _ in range(e):
                d = d.partial("u", i + 1)
        total = total + coeff.conjugate() * d.constant_term()
    return total


def verify_adjoints(pairs: Sequence[Tuple[Polynomial, Polynomial]]) -> Dict[str, List[bool]]:
    """Check generator adjointness <Cp,q> = <p,Aq>, <S_u p,q> = <p,S_x q>, and
    self-adjointness of the double-harmonic projection, on sample pairs.

    Pairs may be arbitrary polynomials: the projection check uses them as-is,
    the generator checks use their double-harmonic parts.
    """
    from .transvector import GeneratorTag, apply_generator

    report: Dict[str, List[bool]] = {"C_dagger_A": [], "S_u_dagger_S_x": [], "pi_s_selfadjoint": []}
    for p, q in pairs:
        report["pi_s_selfadjoint"].append(
            fischer_inner_product(extremal_projection_s(p), q)
            == fischer_inner_product(p, extremal_projection_s(q))
        )
        hp = extremal_projection_s(p)
        hq = extremal_projection_s(q)
        cp = apply_generator(GeneratorTag.C, hp)
        aq = apply_generator(GeneratorTag.A, hq)
        report["C_dagger_A"].append(fischer_inner_product(cp, hq) == fischer_inner_product(hp, aq))
        sup = apply_generator(GeneratorTag.S_U, hp)
        sxq = apply_generator(GeneratorTag.S_X, hq)
        report["S_u_dagger_S_x"].append(
            fischer_inner_product(sup, hq) == fischer_inner_product(hp, sxq)
        )
    return report
