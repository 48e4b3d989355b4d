"""Extremal projections onto harmonics and the four transvector generators.

The generators S_x, S_u, A, C are endomorphisms of the double harmonics
ker(Delta_x, Delta_u).  All bidegree-dependent scalings follow the
B^{-1} A convention: denominators are evaluated at the bidegree of the image
of the operator monomial they accompany.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .errors import NotDoubleHarmonic
from .operators import (
    cross_dd,
    laplacian_u,
    laplacian_x,
    linear_combination,
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


def _require_theory_dimension(m: int):
    if m <= 4:
        raise ValueError(f"transvector machinery requires m > 4, got m={m}")


def is_double_harmonic(p: Polynomial) -> bool:
    return laplacian_x(p).is_zero() and laplacian_u(p).is_zero()


def _check_double_harmonic(p: Polynomial):
    if not is_double_harmonic(p):
        raise NotDoubleHarmonic("input is not annihilated by both Laplacians")


# -- extremal projections ------------------------------------------------------


def _axis(axis: str):
    """(Laplacian, |v|^2 multiplier, bidegree slot) of the vector variable v = x or u.

    The functions are looked up when called, so rebinding a module name (as a
    tracer does) reaches every caller.
    """
    if axis == "x":
        return laplacian_x, mul_normsq_x, 0
    if axis == "u":
        return laplacian_u, mul_normsq_u, 1
    raise ValueError(f"axis must be 'x' or 'u', got {axis!r}")


def _h_x(k: int, m: int) -> Fraction:
    """H_v = -(k + m/2) on polynomials of degree k in v (= x or u)."""
    return -(Fraction(k) + Fraction(m, 2))


def _pi_axis(part: Polynomial, axis: str) -> Polynomial:
    """One-variable extremal projection applied to a bihomogeneous part.

    The series sum_j c_j |v|^{2j} Delta_v^j part, with c_0 = 1 and
    c_j = c_{j-1} / (4 j (H + 1 + j)) = (1/(4^j j!)) Gamma(H+2)/Gamma(H+2+j),
    truncates once Delta_v^j kills the part; every factor H + t is evaluated
    at the part's own degree since each term is degree-neutral.  It is summed
    in nested form, part + |v|^2 (c_1 Delta_v part + |v|^2 (c_2 Delta_v^2 part
    + ...)), so |v|^2 multiplies the running sum once per term after the first.
    """
    if part.is_zero():
        return part
    lap, mul_normsq, slot = _axis(axis)
    h = _h_x(part.bidegree()[slot], part.m)
    terms = [part]
    coeff = Fraction(1)
    q = lap(part)
    while not q.is_zero():
        j = len(terms)
        coeff /= 4 * j * (h + 1 + j)
        terms.append(q.scaled(coeff))
        q = lap(q)
    total = nested_sum(mul_normsq, terms)
    return Polynomial.zero(part.m) if total is None else total


def _per_part(p: Polynomial, fn) -> Polynomial:
    """fn on a bihomogeneous p as a whole, else the sum of fn over its bidegree
    parts, whose images are streamed into one ``linear_combination`` call."""
    if p.bidegree() is not None:
        return fn(p)
    return linear_combination(p.m, ((1, None, fn(part)) for part in p.bidegree_split().values()))


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


def _skew_den(degree: int, m: int) -> int:
    """2(d + 1) + m - 4, the scale of the |v|^2 correction of a generator whose
    image has degree d + 1 in v (the B^{-1} A convention)."""
    return 2 * (degree + 1) + m - 4


def _gen_s_x(part: Polynomial) -> Polynomial:
    """S_x = <x, d_u> - |x|^2 <d_u, d_x> / dx."""
    m = part.m
    dx = _skew_den(part.bidegree()[0], m)
    return linear_combination(
        m, ((1, None, skew_xu(part)), (Fraction(-1, dx), "normsq_x", cross_dd(part)))
    )


def _gen_s_u(part: Polynomial) -> Polynomial:
    """S_u = <u, d_x> - |u|^2 <d_u, d_x> / du."""
    m = part.m
    du = _skew_den(part.bidegree()[1], m)
    return linear_combination(
        m, ((1, None, skew_ux(part)), (Fraction(-1, du), "normsq_u", cross_dd(part)))
    )


def _gen_c(part: Polynomial) -> Polynomial:
    """C = <u, x> - |x|^2 <u, d_x> / dx - |u|^2 <x, d_u> / du
    + |x|^2 |u|^2 <d_u, d_x> / (dx du)."""
    m = part.m
    k, l = part.bidegree()
    dx = _skew_den(k, m)
    du = _skew_den(l, m)
    return linear_combination(
        m,
        (
            (1, None, mul_inner_ux(part)),
            (Fraction(-1, dx), "normsq_x", skew_ux(part)),
            (Fraction(-1, du), "normsq_u", skew_xu(part)),
            (Fraction(1, dx * du), "normsq_x", mul_normsq_u(cross_dd(part))),
        ),
    )


_GEN_FUNC = {
    GeneratorTag.S_X: _gen_s_x,
    GeneratorTag.S_U: _gen_s_u,
    GeneratorTag.A: cross_dd,
    GeneratorTag.C: _gen_c,
}


def chain(p: Polynomial, steps: Sequence) -> Polynomial:
    """Apply steps rightmost first, stopping at the first zero image.

    A step is an atom function or a ``GeneratorTag``; a tag applies its
    generator to each bidegree part (``_per_part``).  No domain check is made
    here: ``generator_chain`` is the checked entry.
    """
    for step in reversed(steps):
        if p.is_zero():
            break
        p = _per_part(p, _GEN_FUNC[step]) if isinstance(step, GeneratorTag) else step(p)
    return p


def nested_sum(step, coeffs: Sequence[Optional[Polynomial]]) -> Optional[Polynomial]:
    """Horner form of sum_n step^n coeffs[n]: acc <- step(acc) + coeffs[n], n descending.

    ``step`` is a linear atom function or a ``GeneratorTag``, applied through
    ``chain`` once per index below the highest present coefficient, to the
    running sum rather than to each term; a generator acts on each bidegree
    part of that sum.  ``None`` marks an absent coefficient and is returned
    when no term survives; a sum that cancels in its last addition comes back
    as the zero polynomial.
    """
    acc = None
    for c in reversed(coeffs):
        if acc is not None:
            acc = chain(acc, (step,))
            if acc.is_zero():
                acc = None
        if c is not None and not c.is_zero():
            acc = c if acc is None else acc + c
    return acc


def grid_power(built: dict, p: int, q: int, outer, inner) -> Polynomial:
    """outer^p inner^q of built[0, 0], kept in built: each power is made once,
    by one unchecked ``chain`` step from a smaller one (inner steps first, then
    outer)."""
    if (p, q) not in built:
        prev, step = ((p - 1, q), outer) if p else ((0, q - 1), inner)
        built[p, q] = chain(grid_power(built, *prev, outer, inner), (step,))
    return built[p, q]


def generator_chain(p: Polynomial, tags: Sequence[GeneratorTag]) -> Polynomial:
    """Apply a chain of generators, rightmost tag first (domain checked once)."""
    _require_theory_dimension(p.m)
    if not p.is_zero():
        _check_double_harmonic(p)
    return chain(p, tags)


# -- quadratic relations --------------------------------------------------------

RelationReport = Dict[str, List[bool]]


def _relation_residuals(p: Polynomial) -> Dict[str, Polynomial]:
    """LHS - RHS of the six quadratic relations on one bihomogeneous sample."""
    m = p.m
    k, l = p.bidegree()
    sx, su, a, c = (
        lambda q, tag=tag: chain(q, (tag,))
        for tag in (GeneratorTag.S_X, GeneratorTag.S_U, GeneratorTag.A, GeneratorTag.C)
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
