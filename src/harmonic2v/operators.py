"""The rotation-invariant atoms on polynomial space.

Laplacians, norm and inner-product multipliers, and the two skew operators.
Each atom maps a polynomial to a new one term by term; on bihomogeneous input
it shifts the bidegree by a fixed amount (Delta_x by (-2, 0), |x|^2 by (2, 0),
<u, x> by (1, 1), <d_u, d_x> by (-1, -1), <u, d_x> by (-1, 1), and so on).
"""

from __future__ import annotations

from .poly import Polynomial, RawTerms


def laplacian_x(p: Polynomial) -> Polynomial:
    m = p.m
    out: RawTerms = {}
    get = out.get
    for e, (a, b) in p._terms.items():
        for i in range(m):
            k = e[i]
            if k >= 2:
                f = k * (k - 1)
                ne = e[:i] + (k - 2,) + e[i + 1 :]
                cur = get(ne)
                out[ne] = (a * f, b * f) if cur is None else (cur[0] + a * f, cur[1] + b * f)
    return Polynomial._raw(m, out, p._den)


def laplacian_u(p: Polynomial) -> Polynomial:
    m = p.m
    out: RawTerms = {}
    get = out.get
    for e, (a, b) in p._terms.items():
        for i in range(m, 2 * m):
            k = e[i]
            if k >= 2:
                f = k * (k - 1)
                ne = e[:i] + (k - 2,) + e[i + 1 :]
                cur = get(ne)
                out[ne] = (a * f, b * f) if cur is None else (cur[0] + a * f, cur[1] + b * f)
    return Polynomial._raw(m, out, p._den)


def mul_normsq_x(p: Polynomial) -> Polynomial:
    m = p.m
    out: RawTerms = {}
    get = out.get
    for e, (a, b) in p._terms.items():
        for i in range(m):
            ne = e[:i] + (e[i] + 2,) + e[i + 1 :]
            cur = get(ne)
            out[ne] = (a, b) if cur is None else (cur[0] + a, cur[1] + b)
    return Polynomial._raw(m, out, p._den)


def mul_normsq_u(p: Polynomial) -> Polynomial:
    m = p.m
    out: RawTerms = {}
    get = out.get
    for e, (a, b) in p._terms.items():
        for i in range(m, 2 * m):
            ne = e[:i] + (e[i] + 2,) + e[i + 1 :]
            cur = get(ne)
            out[ne] = (a, b) if cur is None else (cur[0] + a, cur[1] + b)
    return Polynomial._raw(m, out, p._den)


def mul_inner_ux(p: Polynomial) -> Polynomial:
    """Multiplication by <u, x> = sum_j u_j x_j."""
    m = p.m
    out: RawTerms = {}
    get = out.get
    for e, (a, b) in p._terms.items():
        for i in range(m):
            mi = m + i
            ne = e[:i] + (e[i] + 1,) + e[i + 1 : mi] + (e[mi] + 1,) + e[mi + 1 :]
            cur = get(ne)
            out[ne] = (a, b) if cur is None else (cur[0] + a, cur[1] + b)
    return Polynomial._raw(m, out, p._den)


def cross_dd(p: Polynomial) -> Polynomial:
    """<d_u, d_x> = sum_j d_{u_j} d_{x_j}."""
    m = p.m
    out: RawTerms = {}
    get = out.get
    for e, (a, b) in p._terms.items():
        for i in range(m):
            mi = m + i
            ki, li = e[i], e[mi]
            if ki and li:
                f = ki * li
                ne = e[:i] + (ki - 1,) + e[i + 1 : mi] + (li - 1,) + e[mi + 1 :]
                cur = get(ne)
                out[ne] = (a * f, b * f) if cur is None else (cur[0] + a * f, cur[1] + b * f)
    return Polynomial._raw(m, out, p._den)


def skew_ux(p: Polynomial) -> Polynomial:
    """<u, d_x> = sum_j u_j d_{x_j}."""
    m = p.m
    out: RawTerms = {}
    get = out.get
    for e, (a, b) in p._terms.items():
        for i in range(m):
            k = e[i]
            if k:
                mi = m + i
                ne = e[:i] + (k - 1,) + e[i + 1 : mi] + (e[mi] + 1,) + e[mi + 1 :]
                cur = get(ne)
                out[ne] = (a * k, b * k) if cur is None else (cur[0] + a * k, cur[1] + b * k)
    return Polynomial._raw(m, out, p._den)


def skew_xu(p: Polynomial) -> Polynomial:
    """<x, d_u> = sum_j x_j d_{u_j}."""
    m = p.m
    out: RawTerms = {}
    get = out.get
    for e, (a, b) in p._terms.items():
        for i in range(m):
            mi = m + i
            k = e[mi]
            if k:
                ne = e[:i] + (e[i] + 1,) + e[i + 1 : mi] + (k - 1,) + e[mi + 1 :]
                cur = get(ne)
                out[ne] = (a * k, b * k) if cur is None else (cur[0] + a * k, cur[1] + b * k)
    return Polynomial._raw(m, out, p._den)
