"""Exact integration over the Stiefel manifold V_2(R^m) and the unit sphere.

The Stiefel functional is normalized to a probability measure (the value on
the constant 1 is 1).  Only the diagonal even-bidegree double-harmonic layers
contribute: the zonal embedding of the trivial component is a Gegenbauer
polynomial in <u, x> whose constant term vanishes in odd degree.  Each layer
enters through the constant term of A^{2i} applied to it, and A = <d_u, d_x>
keeps alpha - beta of every monomial x^alpha u^beta, so only the layer's
diagonal terms x^c u^c are carried through the chain.

Floating point appears only in the Monte Carlo oracle; the Pizzetti paths are
exact end to end.  numpy is imported only inside that oracle (``_haar_frames``,
``_eval_on_frames`` and ``monte_carlo_many``, reached through ``--mc-samples``
and ``stiefel_monte_carlo``), so the exact library never loads it.  The oracle
draws and evaluates its frames one block of 4,096 at a time into one
chunk-length row of values per polynomial; only a call with more than 2m
polynomials holds a whole chunk of frames, and then one row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, sqrt
from typing import Dict, List, Optional, Sequence, Tuple

from .decomp import ladder_alpha
from .fischer import _layer_scale, _pi_ij, mul_norm_powers
from .operators import cross_dd, laplacian_x, mul_inner_ux
from .poly import FIELD_BITS, Polynomial, exponents
from .rationals import GaussianRational, rising
from .transvector import _require_theory_dimension, chain, nested_sum


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


def _zonal_coefficients(beta: int, m: int) -> Dict[int, Fraction]:
    """{n: c_n} with C^beta[1] = sum_n c_n |x|^{beta-n} |u|^{beta-n} <u,x>^n:
    the Gegenbauer coefficients, scaled so that the <u,x>^beta term is monic."""
    lam = Fraction(m, 2) - 1
    prefactor = Fraction(factorial(beta)) / (Fraction(2) ** beta * rising(lam, beta))
    return {n: prefactor * c for n, c in gegenbauer(beta, lam).items()}


def c_power_one(beta: int, m: int) -> Polynomial:
    """The zonal double harmonic C^beta[1], via its Gegenbauer closed form.

    Equals the creation generator iterated beta times on the constant 1; the
    leading <u,x>^beta term is monic and odd beta has no constant term.  The
    series sum_n c_n |x|^{beta-n} |u|^{beta-n} <u,x>^n is summed in nested
    form, so <u,x> multiplies the running sum beta times in all.
    """
    _require_theory_dimension(m)
    if beta < 0:
        raise ValueError("power must be non-negative")
    coeffs: List[Optional[Polynomial]] = [None] * (beta + 1)
    for n, c in _zonal_coefficients(beta, m).items():
        j = (beta - n) // 2
        coeffs[n] = mul_norm_powers(Polynomial.constant(m, c), j, j)
    return nested_sum(mul_inner_ux, coeffs)


def a_c_power_constant(beta: int, m: int) -> Fraction:
    """The scalar A^{2 beta} C^{2 beta} [1]: the ladder constant of A^{2 beta}
    on the cell C^{2 beta} of weight (0, 0)."""
    if beta < 0:
        raise ValueError("power must be non-negative")
    return ladder_alpha(2 * beta, 0, 2 * beta, 0, 0, 0, m)


def gamma_constant(i: int, m: int) -> Fraction:
    """Weight gamma_i of the A^{2i} term in the Stiefel Pizzetti formula.

    gamma_i is the value of C^{2i}[1] on a frame (|x| = |u| = 1, <u,x> = 0),
    its constant zonal coefficient, over A^{2i}C^{2i}[1].  In closed form
    gamma_0 = 1 and gamma_i = (-1)^i / (2^{2i+1} i! (m-1)^(2i-1) (m/2+i-1)^(i+1)).
    """
    _require_theory_dimension(m)
    if i < 0:
        raise ValueError("index must be non-negative")
    return _zonal_coefficients(2 * i, m)[0] / a_c_power_constant(i, m)


# -- the Stiefel functional ----------------------------------------------------------


def _diagonal_terms(p: Polynomial) -> Polynomial:
    """The terms x^c u^c of p: those whose x-exponents equal their u-exponents."""
    half = FIELD_BITS * p.m
    low = (1 << half) - 1
    return Polynomial._packed(p.m, {k: ab for k, ab in p._terms.items() if k >> half == k & low}, p._den)


def _stiefel_exact_part(part: Polynomial) -> GaussianRational:
    """Exact integral of one bihomogeneous part.

    Sums gamma_i (A^{2i} H_i)(0) over the layers H_i = pi_s Delta_x^a Delta_u^b
    of bidegree (2i, 2i).  A = <d_u, d_x> takes x^alpha u^beta to multiples of
    x^{alpha - e_j} u^{beta - e_j}, so it never changes alpha - beta, and the
    constant term has alpha - beta = 0: only the diagonal terms x^c u^c of H_i
    reach it.  The chain therefore runs on those terms alone, which A maps to
    diagonal terms again.
    """
    p_deg, q_deg = part.bidegree()
    if p_deg % 2 or q_deg % 2:
        return GaussianRational()
    total = GaussianRational()
    # the diagonal layers |x|^{2jx} |u|^{2ju} H of bidegree (2i, 2i)
    for i in range(min(p_deg, q_deg) // 2 + 1):
        layer = _pi_ij(part, p_deg // 2 - i, q_deg // 2 - i)
        if not layer.is_zero():
            w = chain(_diagonal_terms(layer), (cross_dd,) * (2 * i))
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
    if any(ku for _, ku in p.bidegree_split()):
        raise ValueError("sphere integration expects a polynomial in x only")
    # the mean over S^{m-1} is sum_k (Delta^k p)(0) / (4^k k! (m/2)^(k))
    acc = GaussianRational()
    q, k = p, 0
    while not q.is_zero():
        acc = acc + q.constant_term() * _layer_scale(2 * k, m, k)
        q = laplacian_x(q)
        k += 1
    # |S^{m-1}| = 2 pi^{m/2} / Gamma(m/2), where Gamma(m/2) = Gamma(g) g^(m/2-g)
    # for g = 1 (even m) or g = 1/2 (odd m, whose Gamma(1/2) = sqrt(pi))
    g = Fraction(2 - m % 2, 2)
    return SphereIntegral(acc * (2 / rising(g, int(Fraction(m, 2) - g))), Fraction(m // 2))


# -- Monte Carlo oracle ----------------------------------------------------------

_MC_CHUNK = 1 << 16
#: Frames drawn, orthonormalized and evaluated at a time: a chunk is handled in
#: blocks of this many frames, so no array spans the chunk's 2m coordinate rows.
_MC_BLOCK = 1 << 12


def _haar_frames(m: int, count: int, seed: int, chunk_index: int):
    """Haar-distributed orthonormal 2-frames via Gaussian draws + Gram-Schmidt.

    Yields (start, omega, eta) for each block of at most ``_MC_BLOCK`` frames
    of the chunk, omega and eta as m x b coordinate rows of frames
    start..start+b-1.  Each chunk owns an independent counter-based substream
    keyed by (seed, chunk_index), so any partition of chunks across workers
    reproduces the sequential stream exactly.  The blocks are drawn in order,
    which gives the frames of drawing the chunk all at once; a degenerate draw
    (norm < 1e-12) is redrawn right after its block, not after the whole
    chunk.  The caller may evaluate between blocks: that touches no
    generator state.
    """
    import numpy as np

    key = (np.uint64(seed), np.uint64(chunk_index))
    rng = np.random.Generator(np.random.Philox(key=key))
    for start in range(0, count, _MC_BLOCK):
        g = rng.standard_normal((min(_MC_BLOCK, count - start), 2, m))
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
        yield start, omega.T, (v / n2[:, None]).T


def _eval_on_frames(p: Polynomial, omega, eta, vals):
    """Vectorized real-part evaluation of p on frames given as m x count
    coordinate rows, written into ``vals``, a row of count doubles."""
    import numpy as np

    m = p.m
    vals[:] = 0.0
    den = float(p._den)
    for key, (a, b) in p._terms.items():
        if not a:
            continue  # imaginary coefficients do not contribute to the real part
        e = exponents(key, m)
        term = np.ones(omega.shape[1])
        for i in range(m):
            if e[i]:
                term *= omega[i] ** e[i]
            if e[m + i]:
                term *= eta[i] ** e[m + i]
        vals += (a / den) * term


def monte_carlo_many(
    polys: Sequence[Polynomial], n: int, seed: int
) -> List[Tuple[float, float]]:
    """(estimate, stderr) of the real part of each polynomial, sharing one
    frame stream across all of them.

    Each polynomial is evaluated on every block of frames into a chunk-length
    row of values, and a full row is summed exactly as if the chunk had been
    evaluated at once, so the estimates do not depend on the block size or on
    the number of polynomials.
    """
    import numpy as np

    if n < 1:
        raise ValueError("need at least one sample")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2^64 - 1], got {seed}")
    if not polys:
        return []
    m = polys[0].m
    if any(q.m != m for q in polys):
        raise ValueError("all polynomials must share the ambient dimension")
    sums = [0.0] * len(polys)
    sqsums = [0.0] * len(polys)
    # Up to 2m polynomials keep one value row each and take the frames block by
    # block as drawn.  More than that hold the chunk's 2m coordinate rows
    # instead, the smaller of the two, and take the polynomials one at a time.
    width = len(polys) if len(polys) <= 2 * m else 1
    vals = np.empty((width, min(n, _MC_CHUNK)))  # reused by every chunk
    for chunk_index, first in enumerate(range(0, n, _MC_CHUNK)):
        count = min(_MC_CHUNK, n - first)
        blocks = _haar_frames(m, count, seed, chunk_index)
        if width < len(polys):
            blocks = list(blocks)
        for lo in range(0, len(polys), width):
            for start, omega, eta in blocks:
                stop = start + omega.shape[1]
                for t, q in enumerate(polys[lo : lo + width]):
                    _eval_on_frames(q, omega, eta, vals[t, start:stop])
            for t, row in enumerate(vals[:, :count], lo):
                sums[t] += float(row.sum())
                sqsums[t] += float((row * row).sum())
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
