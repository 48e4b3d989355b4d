"""The rotation-invariant atoms on polynomial space.

Laplacians, norm and inner-product multipliers, and the two skew operators.
Each atom maps a polynomial to a new one term by term; on bihomogeneous input
it shifts the bidegree by a fixed amount (Delta_x by (-2, 0), |x|^2 by (2, 0),
<u, x> by (1, 1), <d_u, d_x> by (-1, -1), <u, d_x> by (-1, 1), and so on).

Every atom is a sum over j = 1..m of one exponent shift on packed keys (see
``poly``), times a multiplier read from at most two exponent fields.  Each
atom is a per-m table row of key deltas and field offsets, and one kernel,
``linear_combination``, sums c_t Q_t p_t over parts whose Q_t is 1 or any
atom into one term dict.  Every atom and every polynomial sum is a call of
it: the atoms and unary minus with one part; ``Polynomial`` + and -, the
generators, the sums over bidegree parts, the parser's sums and the
decomposition certificate with many.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Dict, Iterable, Optional, Tuple, Union

from .errors import DimensionMismatch, ExponentOutOfRange
from .poly import FIELD_MASK, MAX_TERM_DEGREE, Polynomial, RawTerms, field_shift

#: Multiplier of d^2/dv^2 and of d/dv on v^k, indexed by k.
_SECOND = tuple(k * (k - 1) for k in range(MAX_TERM_DEGREE + 1))
_FIRST = tuple(range(MAX_TERM_DEGREE + 1))

#: One summand (c, Q, p) of ``linear_combination``: c * Q * p, Q an atom's
#: ``_table`` name or None for 1.
Part = Tuple[Union[int, Fraction], Optional[str], Polynomial]


@lru_cache(maxsize=None)
def _table(m: int) -> Dict[str, tuple]:
    """(rows, factor) of every atom for ambient dimension m.

    A quadric's rows are key deltas, and its factor is None.  A derivative's
    rows are (s, delta), with multiplier factor[e_s], e_s the exponent at bit
    offset s; <d_u, d_x>'s are (s, t, delta), with multiplier e_s factor[e_t].
    """
    xs = [field_shift(m, "x", j) for j in range(1, m + 1)]
    us = [field_shift(m, "u", j) for j in range(1, m + 1)]
    pairs = list(zip(xs, us))
    return {
        "laplacian_x": (tuple((s, -(2 << s)) for s in xs), _SECOND),
        "laplacian_u": (tuple((s, -(2 << s)) for s in us), _SECOND),
        "normsq_x": (tuple(2 << s for s in xs), None),
        "normsq_u": (tuple(2 << s for s in us), None),
        "inner_ux": (tuple((1 << sx) + (1 << su) for sx, su in pairs), None),
        "cross_dd": (tuple((sx, su, -(1 << sx) - (1 << su)) for sx, su in pairs), _FIRST),
        "skew_ux": (tuple((sx, (1 << su) - (1 << sx)) for sx, su in pairs), _FIRST),
        "skew_xu": (tuple((su, (1 << sx) - (1 << su)) for sx, su in pairs), _FIRST),
    }


def linear_combination(m: int, parts: Iterable[Part]) -> Polynomial:
    """sum_t c_t Q_t p_t for parts (c_t, Q_t, p_t), written into one term dict.

    c_t is an int or a ``Fraction``; Q_t is None for 1, or the ``_table`` name
    of an atom.  A quadric ("normsq_x", "normsq_u", "inner_ux") adds its key
    deltas to each key, after a check of the degree limit; a derivative reads
    its multiplier from the factor table, which is scaled by the part's
    coefficient once, and lowers or keeps each degree.  The sum keeps one
    running denominator and rescales the terms gathered so far, in place,
    when a part's denominator does not divide it; it is normalized once, at
    the end.  Every part's dimension is checked, then empty parts are
    skipped, and ``parts`` is read once, so a generator can stream them.  The
    terms keep the order in which their keys first appear, the first part's
    keys first, and a key that cancels keeps its place until the end.
    """
    out: RawTerms = {}
    get = out.get
    den = 1
    for c, atom, p in parts:
        if p.m != m:
            raise DimensionMismatch(f"dimension mismatch: {m} vs {p.m}")
        if not p._terms:
            continue
        pd = c.denominator * p._den
        if den % pd:
            grown = den // gcd(den, pd) * pd
            r = grown // den
            for k, (a, b) in out.items():
                out[k] = (a * r, b * r)
            den = grown
        f = c.numerator * (den // pd)
        terms = p._terms
        if atom is None:
            if not out:
                out.update(terms if f == 1 else {k: (a * f, b * f) for k, (a, b) in terms.items()})
                continue
            for k, (a, b) in terms.items():
                cur = get(k)
                out[k] = (a * f, b * f) if cur is None else (cur[0] + a * f, cur[1] + b * f)
            continue
        rows, factor = _table(m)[atom]
        if factor is None:
            top = MAX_TERM_DEGREE - 2
            for k, ab in terms.items():
                # The product of nonzero polynomials has the sum of their degrees.
                if k % FIELD_MASK > top:
                    raise ExponentOutOfRange(
                        f"product of degree {k % FIELD_MASK + 2} exceeds the maximum {MAX_TERM_DEGREE}"
                    )
                if f != 1:
                    ab = (ab[0] * f, ab[1] * f)
                a, b = ab
                for d in rows:
                    ne = k + d
                    cur = get(ne)
                    out[ne] = ab if cur is None else (cur[0] + a, cur[1] + b)
            continue
        if f != 1:
            factor = [e * f for e in factor]
        # A zero factor means the derivative kills the term, so no delta can
        # take an exponent below zero.
        if len(rows[0]) == 2:
            for k, (a, b) in terms.items():
                for s, d in rows:
                    g = factor[(k >> s) & FIELD_MASK]
                    if g:
                        ne = k + d
                        cur = get(ne)
                        out[ne] = (a * g, b * g) if cur is None else (cur[0] + a * g, cur[1] + b * g)
        else:
            for k, (a, b) in terms.items():
                for s, t, d in rows:
                    g = (k >> s) & FIELD_MASK
                    if g:
                        g *= factor[(k >> t) & FIELD_MASK]
                        if g:
                            ne = k + d
                            cur = get(ne)
                            out[ne] = (a * g, b * g) if cur is None else (cur[0] + a * g, cur[1] + b * g)
    return Polynomial._packed(m, out, den)


def laplacian_x(p: Polynomial) -> Polynomial:
    return linear_combination(p.m, ((1, "laplacian_x", p),))


def laplacian_u(p: Polynomial) -> Polynomial:
    return linear_combination(p.m, ((1, "laplacian_u", p),))


def mul_normsq_x(p: Polynomial) -> Polynomial:
    return linear_combination(p.m, ((1, "normsq_x", p),))


def mul_normsq_u(p: Polynomial) -> Polynomial:
    return linear_combination(p.m, ((1, "normsq_u", p),))


def mul_inner_ux(p: Polynomial) -> Polynomial:
    """Multiplication by <u, x> = sum_j u_j x_j."""
    return linear_combination(p.m, ((1, "inner_ux", p),))


def cross_dd(p: Polynomial) -> Polynomial:
    """<d_u, d_x> = sum_j d_{u_j} d_{x_j}."""
    return linear_combination(p.m, ((1, "cross_dd", p),))


def skew_ux(p: Polynomial) -> Polynomial:
    """<u, d_x> = sum_j u_j d_{x_j}."""
    return linear_combination(p.m, ((1, "skew_ux", p),))


def skew_xu(p: Polynomial) -> Polynomial:
    """<x, d_u> = sum_j x_j d_{u_j}."""
    return linear_combination(p.m, ((1, "skew_xu", p),))
