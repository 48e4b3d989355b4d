"""Exact integration over the Stiefel manifold V_2(R^m) and the unit sphere.

The Stiefel functional is normalized to a probability measure (the value on
the constant 1 is 1).  Only the diagonal even-bidegree double-harmonic layers
contribute: the zonal embedding of the trivial component is a Gegenbauer
polynomial in <u, x> whose constant term vanishes in odd degree.

Floating point appears only in the Monte Carlo oracle; the Pizzetti paths are
exact end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, sqrt
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fischer import _pi_ij
from .operators import cross_dd, laplacian_x, mul_inner_ux, mul_normsq_u, mul_normsq_x
from .poly import Polynomial
from .rationals import GaussianRational, rising, rising_ext
from .transvector import _require_theory_dimension, chain


@dataclass(frozen=True)
class QuadratureReport:
    """Exact Stiefel integral plus the optional Monte Carlo cross-check."""

    pizzetti_value: GaussianRational
    mc_estimate: Optional[float] = None
    mc_stderr: Optional[float] = None
    samples: int = 0


@dataclass(frozen=True)
class SphereIntegral:
    """A sphere integral as an exact rational multiple of an integer or
    half-integer power of pi."""

    coefficient: GaussianRational
    pi_power: Fraction

    def __str__(self) -> str:
        power = (
            str(self.pi_power)
            if self.pi_power.denominator == 1
            else f"({self.pi_power})"
        )
        return f"{self.coefficient} * pi^{power}"

    def to_float(self) -> complex:
        return self.coefficient.to_complex() * float(np.pi) ** float(self.pi_power)


# -- Gegenbauer embedding ---------------------------------------------------------


def gegenbauer(beta: int, lam) -> Dict[int, Fraction]:
    """Coefficients {degree: coeff} of the Gegenbauer polynomial C_beta^lam(t)."""
    if beta < 0:
        raise ValueError("degree must be non-negative")
    lam = Fraction(lam)
    out: Dict[int, Fraction] = {}
    for j in range(beta // 2 + 1):
        # Gamma(beta - j + lam)/Gamma(lam) = lam^(beta-j)
        c = rising(lam, beta - j) * Fraction(2) ** (beta - 2 * j)
        c /= factorial(j) * factorial(beta - 2 * j)
        if j % 2:
            c = -c
        if c:
            out[beta - 2 * j] = c
    return out


def c_power_one(beta: int, m: int) -> Polynomial:
    """The zonal double harmonic C^beta[1], via its Gegenbauer closed form.

    Equals the creation generator iterated beta times on the constant 1; the
    leading <u,x>^beta term is monic and odd beta has no constant term.
    """
    _require_theory_dimension(m)
    if beta < 0:
        raise ValueError("power must be non-negative")
    lam = Fraction(m, 2) - 1
    prefactor = Fraction(factorial(beta)) / (Fraction(2) ** beta * rising(lam, beta))
    inner = _inner_ux_poly(m)
    normx = _normsq_poly(m, "x")
    normu = _normsq_poly(m, "u")
    total = Polynomial.zero(m)
    for degree, coeff in gegenbauer(beta, lam).items():
        j = (beta - degree) // 2
        term = Polynomial.constant(m, prefactor * coeff)
        for _ in range(degree):
            term = term * inner
        for _ in range(j):
            term = term * normx
        for _ in range(j):
            term = term * normu
        total = total + term
    return total


def _inner_ux_poly(m: int) -> Polynomial:
    return mul_inner_ux(Polynomial.constant(m, 1))


def _normsq_poly(m: int, axis: str) -> Polynomial:
    fn = mul_normsq_x if axis == "x" else mul_normsq_u
    return fn(Polynomial.constant(m, 1))


def a_c_power_constant(beta: int, m: int) -> Fraction:
    """The scalar A^{2 beta} C^{2 beta} [1]: product of the annihilation constants."""
    if beta < 0:
        raise ValueError("power must be non-negative")
    n = 2 * beta
    half_m = Fraction(m, 2)
    return (
        Fraction(factorial(n))
        * (n + half_m - 1)
        / (half_m - 1)
        * rising(m - 2, n)
    )


def gamma_constant(i: int, m: int) -> Fraction:
    """Weight gamma_i of the A^{2i} term in the Stiefel Pizzetti formula.

    gamma_i = (-1)^i / (2^{2i+1} i! (m-1)^(2i-1) (m/2+i-1)^(i+1)), with the
    upper factorial extended by alpha^(-1) = 1/(alpha-1) so that gamma_0 = 1.
    The denominator collects the annihilation-constant product A^{2i}C^{2i}[1]
    and the central Gegenbauer value of the zonal embedding.
    """
    _require_theory_dimension(m)
    if i < 0:
        raise ValueError("index must be non-negative")
    half_m = Fraction(m, 2)
    den = (
        Fraction(2) ** (2 * i + 1)
        * factorial(i)
        * rising_ext(Fraction(m - 1), 2 * i - 1)
        * rising(half_m + i - 1, i + 1)
    )
    sign = -1 if i % 2 else 1
    return Fraction(sign) / den


# -- the Stiefel functional ----------------------------------------------------------


def _stiefel_exact_part(part: Polynomial) -> GaussianRational:
    """Exact integral of one bihomogeneous part."""
    p_deg, q_deg = part.bidegree()
    if p_deg % 2 or q_deg % 2:
        return GaussianRational()
    total = GaussianRational()
    for jx in range(p_deg // 2 + 1):
        for ju in range(q_deg // 2 + 1):
            if p_deg - 2 * jx != q_deg - 2 * ju:
                continue
            diag = p_deg - 2 * jx
            if diag % 2:
                continue
            i = diag // 2
            layer = _pi_ij(part, jx, ju)
            if layer.is_zero():
                continue
            w = chain(layer, (cross_dd,) * (2 * i))
            total = total + w.constant_term() * gamma_constant(i, part.m)
    return total


def stiefel_integrate(
    p: Polynomial, mc_samples: Optional[int] = None, seed: int = 0
) -> QuadratureReport:
    """Integrate a polynomial over V_2(R^m) with the normalized invariant measure.

    The exact value satisfies I(|x|^2 p) = I(|u|^2 p) = I(p) and I(<u,x> p) = 0;
    bidegrees outside (2N)^2 contribute nothing.  Pass ``mc_samples`` to attach
    a Monte Carlo estimate.
    """
    _require_theory_dimension(p.m)
    total = GaussianRational()
    for part in p.bidegree_split().values():
        total = total + _stiefel_exact_part(part)
    if mc_samples:
        est, err = stiefel_monte_carlo(p, mc_samples, seed)
        return QuadratureReport(total, est, err, mc_samples)
    return QuadratureReport(total)


def sphere_integrate(p: Polynomial) -> SphereIntegral:
    """Classical Pizzetti integral of an x-only polynomial over S^{m-1}.

    The result carries its transcendental factor symbolically: a Gaussian
    rational times pi^(m/2) (even m) or pi^((m-1)/2) (odd m, after the
    half-integer Gamma values cancel one sqrt(pi)).
    """
    m = p.m
    for mono, _ in p.terms():
        if any(mono.uexp):
            raise ValueError("sphere integration expects a polynomial in x only")
    half_m = Fraction(m, 2)
    acc = GaussianRational()
    q = p
    k = 0
    scale = Fraction(1)
    while not q.is_zero():
        if k:
            scale /= 4 * k * (half_m + k - 1)
        acc = acc + q.constant_term() * scale
        q = laplacian_x(q)
        k += 1
    if m % 2 == 0:
        coeff = acc * Fraction(2, factorial(m // 2 - 1))
        power = Fraction(m, 2)
    else:
        coeff = acc * (2 / rising(Fraction(1, 2), (m - 1) // 2))
        power = Fraction(m - 1, 2)
    return SphereIntegral(coeff, power)


# -- Monte Carlo oracle ----------------------------------------------------------

_MC_CHUNK = 1 << 16


def _chunk_plan(n: int, chunk: int = _MC_CHUNK) -> List[Tuple[int, int]]:
    """Fixed partition of n samples into (chunk_index, count) pieces."""
    plan = []
    idx = 0
    remaining = n
    while remaining > 0:
        take = min(chunk, remaining)
        plan.append((idx, take))
        idx += 1
        remaining -= take
    return plan


def _haar_frames(m: int, count: int, seed: int, chunk_index: int):
    """Haar-distributed orthonormal 2-frames via Gaussian draws + Gram-Schmidt.

    Each chunk owns an independent counter-based substream keyed by
    (seed, chunk_index), so any partition of chunks across workers reproduces
    the sequential stream exactly.
    """
    key = (np.uint64(seed & (2**64 - 1)), np.uint64(chunk_index))
    rng = np.random.Generator(np.random.Philox(key=key))
    g = rng.standard_normal((count, 2, m))
    while True:
        n1 = np.linalg.norm(g[:, 0, :], axis=1)
        bad = n1 < 1e-12
        if not bad.any():
            break
        g[bad, 0, :] = rng.standard_normal((int(bad.sum()), m))
    omega = g[:, 0, :] / n1[:, None]
    v = g[:, 1, :] - (g[:, 1, :] * omega).sum(axis=1)[:, None] * omega
    while True:
        n2 = np.linalg.norm(v, axis=1)
        bad = n2 < 1e-12
        if not bad.any():
            break
        fresh = rng.standard_normal((int(bad.sum()), m))
        fresh -= (fresh * omega[bad]).sum(axis=1)[:, None] * omega[bad]
        v[bad] = fresh
    eta = v / n2[:, None]
    return omega, eta


def _eval_on_frames(p: Polynomial, omega, eta):
    """Vectorized real-part evaluation of p on a batch of frames."""
    m = p.m
    vals = np.zeros(omega.shape[0])
    den = float(p._den)
    for e, (a, b) in p._terms.items():
        term = np.ones(omega.shape[0])
        for i in range(m):
            if e[i]:
                term = term * omega[:, i] ** e[i]
            if e[m + i]:
                term = term * eta[:, i] ** e[m + i]
        if a:
            vals += (a / den) * term
        # imaginary coefficients do not contribute to the real part
    return vals


def monte_carlo_many(
    polys: Sequence[Polynomial], n: int, seed: int
) -> List[Tuple[float, float]]:
    """(estimate, stderr) of the real part of each polynomial, sharing one
    frame stream across all of them."""
    if n < 1:
        raise ValueError("need at least one sample")
    if not polys:
        return []
    m = polys[0].m
    if any(q.m != m for q in polys):
        raise ValueError("all polynomials must share the ambient dimension")
    sums = [0.0] * len(polys)
    sqsums = [0.0] * len(polys)
    for chunk_index, count in _chunk_plan(n):
        omega, eta = _haar_frames(m, count, seed, chunk_index)
        for t, q in enumerate(polys):
            vals = _eval_on_frames(q, omega, eta)
            sums[t] += float(vals.sum())
            sqsums[t] += float((vals * vals).sum())
    out = []
    for t in range(len(polys)):
        mean = sums[t] / n
        var = max(sqsums[t] / n - mean * mean, 0.0)
        out.append((mean, sqrt(var / n)))
    return out


def stiefel_monte_carlo(p: Polynomial, n: int, seed: int = 0) -> Tuple[float, float]:
    """Plain Monte Carlo average of p over Haar frames; deterministic per seed.

    Estimates the real part of the integrand; split a complex polynomial into
    real and imaginary parts to estimate both.
    """
    return monte_carlo_many([p], n, seed)[0]
