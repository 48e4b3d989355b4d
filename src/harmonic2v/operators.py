"""The rotation-invariant atoms on polynomial space.

Laplacians, norm and inner-product multipliers, and the two skew operators.
Each atom maps a polynomial to a new one term by term; on bihomogeneous input
it shifts the bidegree by a fixed amount (Delta_x by (-2, 0), |x|^2 by (2, 0),
<u, x> by (1, 1), <d_u, d_x> by (-1, -1), <u, d_x> by (-1, 1), and so on).

Every atom is a sum over j = 1..m of one exponent shift on packed keys (see
``poly``), times a multiplier read from at most two exponent fields.  One
kernel serves each multiplier shape, and each atom is a per-m table row of
field offsets and key deltas for it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

from .errors import ExponentOutOfRange
from .poly import FIELD_MASK, MAX_TERM_DEGREE, Polynomial, RawTerms, field_shift

#: Multiplier of d^2/dv^2 and of d/dv on v^k, indexed by k.
_SECOND = tuple(k * (k - 1) for k in range(FIELD_MASK + 1))
_FIRST = tuple(range(FIELD_MASK + 1))


@lru_cache(maxsize=None)
def _table(m: int) -> Dict[str, tuple]:
    """Kernel arguments of every atom for ambient dimension m."""
    xs = [field_shift(m, "x", j) for j in range(1, m + 1)]
    us = [field_shift(m, "u", j) for j in range(1, m + 1)]
    pairs = list(zip(xs, us))
    return {
        "laplacian_x": (tuple((s, -(2 << s)) for s in xs), _SECOND),
        "laplacian_u": (tuple((s, -(2 << s)) for s in us), _SECOND),
        "normsq_x": tuple(2 << s for s in xs),
        "normsq_u": tuple(2 << s for s in us),
        "inner_ux": tuple((1 << sx) + (1 << su) for sx, su in pairs),
        "cross_dd": tuple((sx, su, -(1 << sx) - (1 << su)) for sx, su in pairs),
        "skew_ux": (tuple((sx, (1 << su) - (1 << sx)) for sx, su in pairs), _FIRST),
        "skew_xu": (tuple((su, (1 << sx) - (1 << su)) for sx, su in pairs), _FIRST),
    }


def _times_quadric(p: Polynomial, deltas: Tuple[int, ...]) -> Polynomial:
    """p times a sum of degree-2 monomials, given as their key deltas."""
    out: RawTerms = {}
    get = out.get
    top = MAX_TERM_DEGREE - 2
    for k, ab in p._terms.items():
        # The product of nonzero polynomials has the sum of their degrees.
        if k % FIELD_MASK > top:
            raise ExponentOutOfRange(
                f"product of degree {k % FIELD_MASK + 2} exceeds the maximum {MAX_TERM_DEGREE}"
            )
        a, b = ab
        for d in deltas:
            ne = k + d
            cur = get(ne)
            out[ne] = ab if cur is None else (cur[0] + a, cur[1] + b)
    return Polynomial._packed(p.m, out, p._den)


def _one_field(
    p: Polynomial, rows: Tuple[Tuple[int, int], ...], factor: Tuple[int, ...]
) -> Polynomial:
    """sum_j factor[e_j] * (term shifted by delta_j), e_j the field at shift_j.

    A zero factor means the derivative kills the term, so no shift can take
    an exponent below zero; the shifts keep the total degree or lower it.
    """
    out: RawTerms = {}
    get = out.get
    for k, (a, b) in p._terms.items():
        for s, d in rows:
            f = factor[(k >> s) & FIELD_MASK]
            if f:
                ne = k + d
                cur = get(ne)
                out[ne] = (a * f, b * f) if cur is None else (cur[0] + a * f, cur[1] + b * f)
    return Polynomial._packed(p.m, out, p._den)


def _two_fields(p: Polynomial, rows: Tuple[Tuple[int, int, int], ...]) -> Polynomial:
    """sum_j e_j * e'_j * (term shifted by delta_j), e_j and e'_j the fields at
    the row's two shifts."""
    out: RawTerms = {}
    get = out.get
    for k, (a, b) in p._terms.items():
        for s, t, d in rows:
            f = (k >> s) & FIELD_MASK
            if f:
                f *= (k >> t) & FIELD_MASK
                if f:
                    ne = k + d
                    cur = get(ne)
                    out[ne] = (a * f, b * f) if cur is None else (cur[0] + a * f, cur[1] + b * f)
    return Polynomial._packed(p.m, out, p._den)


def laplacian_x(p: Polynomial) -> Polynomial:
    return _one_field(p, *_table(p.m)["laplacian_x"])


def laplacian_u(p: Polynomial) -> Polynomial:
    return _one_field(p, *_table(p.m)["laplacian_u"])


def mul_normsq_x(p: Polynomial) -> Polynomial:
    return _times_quadric(p, _table(p.m)["normsq_x"])


def mul_normsq_u(p: Polynomial) -> Polynomial:
    return _times_quadric(p, _table(p.m)["normsq_u"])


def mul_inner_ux(p: Polynomial) -> Polynomial:
    """Multiplication by <u, x> = sum_j u_j x_j."""
    return _times_quadric(p, _table(p.m)["inner_ux"])


def cross_dd(p: Polynomial) -> Polynomial:
    """<d_u, d_x> = sum_j d_{u_j} d_{x_j}."""
    return _two_fields(p, _table(p.m)["cross_dd"])


def skew_ux(p: Polynomial) -> Polynomial:
    """<u, d_x> = sum_j u_j d_{x_j}."""
    return _one_field(p, *_table(p.m)["skew_ux"])


def skew_xu(p: Polynomial) -> Polynomial:
    """<x, d_u> = sum_j x_j d_{u_j}."""
    return _one_field(p, *_table(p.m)["skew_xu"])
