"""Extremal projections onto harmonics and the four transvector generators.

The generators S_x, S_u, A, C are endomorphisms of the double harmonics
ker(Delta_x, Delta_u).  All bidegree-dependent scalings follow the
B^{-1} A convention: denominators are evaluated at the bidegree of the image
of the operator monomial they accompany.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Dict, List, Sequence

from .errors import NotDoubleHarmonic
from .operators import (
    cross_dd,
    laplacian_u,
    laplacian_x,
    mul_inner_ux,
    mul_normsq_u,
    mul_normsq_x,
    skew_ux,
    skew_xu,
)
from .poly import Polynomial


class GeneratorTag(Enum):
    S_X = "S_x"
    S_U = "S_u"
    A = "A"
    C = "C"


#: Bidegree shift of each generator on bihomogeneous double harmonics.
GENERATOR_SHIFT = {
    GeneratorTag.S_X: (1, -1),
    GeneratorTag.S_U: (-1, 1),
    GeneratorTag.A: (-1, -1),
    GeneratorTag.C: (1, 1),
}


def _require_theory_dimension(m: int):
    if m <= 4:
        raise ValueError(f"transvector machinery requires m > 4, got m={m}")


def is_double_harmonic(p: Polynomial) -> bool:
    return laplacian_x(p).is_zero() and laplacian_u(p).is_zero()


def _check_double_harmonic(p: Polynomial):
    if not is_double_harmonic(p):
        raise NotDoubleHarmonic("input is not annihilated by both Laplacians")


# -- extremal projections ------------------------------------------------------


def _pi_axis(part: Polynomial, axis: str) -> Polynomial:
    """One-variable extremal projection applied to a bihomogeneous part.

    The series 1 + sum_j (1/(4^j j!)) Gamma(H+2)/Gamma(H+2+j) |v|^{2j} Delta_v^j
    truncates once Delta_v^j kills the part; every factor H + t is evaluated at
    the part's own degree since the chain is degree-neutral.
    """
    if part.is_zero():
        return part
    m = part.m
    kx, ku = part.bidegree()
    deg = kx if axis == "x" else ku
    lap = laplacian_x if axis == "x" else laplacian_u
    mul_norm = mul_normsq_x if axis == "x" else mul_normsq_u
    h = -(Fraction(deg) + Fraction(m, 2))

    total = part
    q = part
    coeff = Fraction(1)
    j = 0
    while True:
        j += 1
        q = lap(q)
        if q.is_zero():
            break
        coeff /= 4 * j * (h + 1 + j)
        total = total + chain(q, (mul_norm,) * j).scaled(coeff)
    return total


def _per_part(p: Polynomial, fn) -> Polynomial:
    total = Polynomial.zero(p.m)
    for part in p.bidegree_split().values():
        total = total + fn(part)
    return total


def extremal_projection_x(p: Polynomial) -> Polynomial:
    """Project onto ker(Delta_x) along |x|^2-multiples, exactly."""
    return _per_part(p, lambda q: _pi_axis(q, "x"))


def extremal_projection_u(p: Polynomial) -> Polynomial:
    """Project onto ker(Delta_u) along |u|^2-multiples, exactly."""
    return _per_part(p, lambda q: _pi_axis(q, "u"))


def extremal_projection_s(p: Polynomial) -> Polynomial:
    """Project onto the double harmonics; the two one-variable series commute."""
    return _per_part(p, lambda q: _pi_axis(_pi_axis(q, "u"), "x"))


# -- generators ----------------------------------------------------------------


def _gen_s_x(part: Polynomial) -> Polynomial:
    m = part.m
    k, _ = part.bidegree()
    den = 2 * (k + 1) + m - 4
    return skew_xu(part) - mul_normsq_x(cross_dd(part)).scaled(Fraction(1, den))


def _gen_s_u(part: Polynomial) -> Polynomial:
    m = part.m
    _, l = part.bidegree()
    den = 2 * (l + 1) + m - 4
    return skew_ux(part) - mul_normsq_u(cross_dd(part)).scaled(Fraction(1, den))


def _gen_c(part: Polynomial) -> Polynomial:
    m = part.m
    k, l = part.bidegree()
    dx = 2 * (k + 1) + m - 4
    du = 2 * (l + 1) + m - 4
    out = mul_inner_ux(part)
    out = out - mul_normsq_x(skew_ux(part)).scaled(Fraction(1, dx))
    out = out - mul_normsq_u(skew_xu(part)).scaled(Fraction(1, du))
    out = out + mul_normsq_x(mul_normsq_u(cross_dd(part))).scaled(Fraction(1, dx * du))
    return out


_GEN_FUNC = {
    GeneratorTag.S_X: _gen_s_x,
    GeneratorTag.S_U: _gen_s_u,
    GeneratorTag.A: cross_dd,
    GeneratorTag.C: _gen_c,
}


def _apply_generator_unchecked(tag: GeneratorTag, p: Polynomial) -> Polynomial:
    fn = _GEN_FUNC[tag]
    if p.bidegree() is not None:
        return fn(p)
    return _per_part(p, fn)


def apply_generator(tag: GeneratorTag, p: Polynomial) -> Polynomial:
    """Apply one of S_x, S_u, A, C to a double-harmonic polynomial."""
    _require_theory_dimension(p.m)
    if p.is_zero():
        return p
    _check_double_harmonic(p)
    return _apply_generator_unchecked(tag, p)


def chain(p: Polynomial, steps: Sequence) -> Polynomial:
    """Apply steps rightmost first, stopping at the first zero image.

    A step is an atom function or a ``GeneratorTag``; tags dispatch through
    ``_apply_generator_unchecked``, so no domain check is made here.
    """
    for step in reversed(steps):
        if p.is_zero():
            break
        p = _apply_generator_unchecked(step, p) if isinstance(step, GeneratorTag) else step(p)
    return p


def generator_chain(p: Polynomial, tags: Sequence[GeneratorTag]) -> Polynomial:
    """Apply a chain of generators, rightmost tag first (domain checked once)."""
    _require_theory_dimension(p.m)
    if not p.is_zero():
        _check_double_harmonic(p)
    return chain(p, tags)


# -- quadratic relations --------------------------------------------------------

RelationReport = Dict[str, List[bool]]


def _h_x(k: int, m: int) -> Fraction:
    return -(Fraction(k) + Fraction(m, 2))


def _relation_residuals(p: Polynomial) -> Dict[str, Polynomial]:
    """LHS - RHS of the six quadratic relations on one bihomogeneous sample."""
    m = p.m
    k, l = p.bidegree()
    sx, su, a, c = (
        lambda q: _apply_generator_unchecked(GeneratorTag.S_X, q),
        lambda q: _apply_generator_unchecked(GeneratorTag.S_U, q),
        lambda q: _apply_generator_unchecked(GeneratorTag.A, q),
        lambda q: _apply_generator_unchecked(GeneratorTag.C, q),
    )
    hx = _h_x(k, m)
    hu = _h_x(l, m)
    out: Dict[str, Polynomial] = {}

    # A S_x = (H_x+2)/(H_x+1) S_x A ; both sides land on bidegree (k, l-2).
    out["A*S_x"] = a(sx(p)) - sx(a(p)).scaled((hx + 2) / (hx + 1))
    # A S_u = (H_u+2)/(H_u+1) S_u A ; image (k-2, l).
    out["A*S_u"] = a(su(p)) - su(a(p)).scaled((hu + 2) / (hu + 1))
    # S_u C = (H_x+2)/(H_x+1) C S_u ; image (k, l+2).
    out["S_u*C"] = su(c(p)) - c(su(p)).scaled((hx + 2) / (hx + 1))
    # S_x C = (H_u+2)/(H_u+1) C S_x ; image (k+2, l).
    out["S_x*C"] = sx(c(p)) - c(sx(p)).scaled((hu + 2) / (hu + 1))
    # [S_x, S_u] = (H_x-H_u)/((1+H_x)(1+H_u)) CA - (H_x-H_u) ; image (k, l).
    comm = sx(su(p)) - su(sx(p))
    out["[S_x,S_u]"] = (
        comm
        - c(a(p)).scaled((hx - hu) / ((1 + hx) * (1 + hu)))
        + p.scaled(hx - hu)
    )
    # AC = (H_x + H_x H_u + H_u)/((H_x+1)(H_u+1)) CA - (H_x+H_u)
    #      + S_x S_u/(H_x+1) + S_u S_x/(H_u+1) ; every monomial is degree-neutral.
    out["A*C"] = (
        a(c(p))
        - c(a(p)).scaled((hx + hx * hu + hu) / ((hx + 1) * (hu + 1)))
        + p.scaled(hx + hu)
        - sx(su(p)).scaled(1 / (hx + 1))
        - su(sx(p)).scaled(1 / (hu + 1))
    )
    return out


RELATION_NAMES = ("A*S_x", "A*S_u", "S_u*C", "S_x*C", "[S_x,S_u]", "A*C")


def verify_quadratic_relations(samples: Sequence[Polynomial]) -> RelationReport:
    """Exact pass/fail of the six generator relations per bihomogeneous sample."""
    report: RelationReport = {name: [] for name in RELATION_NAMES}
    for p in samples:
        _require_theory_dimension(p.m)
        _check_double_harmonic(p)
        if p.bidegree() is None:
            raise ValueError("relation samples must be bihomogeneous")
        residuals = _relation_residuals(p)
        for name in RELATION_NAMES:
            report[name].append(residuals[name].is_zero())
    return report
