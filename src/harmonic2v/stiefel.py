"""Exact integration over the Stiefel manifold V_2(R^m) and the unit sphere.

The Stiefel functional is normalized to a probability measure (the value on
the constant 1 is 1).  Only the diagonal even-bidegree double-harmonic layers
contribute: the zonal embedding of the trivial component is a Gegenbauer
polynomial in <u, x> whose constant term vanishes in odd degree.  Each layer
enters through the constant term of A^{2i} applied to it, and A = <d_u, d_x>
keeps alpha - beta of every monomial x^alpha u^beta, so only the layer's
diagonal terms x^c u^c are carried through the chain.

Floating point appears only in the Monte Carlo oracle; the Pizzetti paths are
exact end to end.  numpy is imported only inside that oracle's functions
(``monte_carlo_many`` and its helpers, reached through ``--mc-samples`` and
``stiefel_monte_carlo``), so the exact library never loads it.  The oracle
splits its frames into chunks of 65,536, each with its own substream, and runs
the chunks on at most ``_MC_MAX_WORKERS`` threads, no more than the usable
CPUs or the chunks.  Each worker draws and evaluates its frames one block of
4,096 at a time, in place, into one chunk-length row of values per
polynomial; only a call with more than 2m polynomials holds a whole chunk of
frames per worker, and then one row.
"""

from __future__ import annotations

import os
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
#: Most Monte Carlo worker threads.  Each worker holds its own block workspace
#: and value rows, so every worker adds its share to peak memory: at m = 8 with
#: one polynomial, 1.55 MB per worker against a tested bound of 4.19 MB for the
#: whole call.  Two is also the only count whose speed-up has been measured
#: (on a 2-CPU x86_64 host).
_MC_MAX_WORKERS = 2


def _usable_cpus() -> int:
    """CPUs this process may run on, one bound on the Monte Carlo workers."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _row_norms(rows, products, norms) -> None:
    """Euclidean norm of each row of ``rows`` into ``norms``, by the ufunc calls
    of ``np.linalg.norm(rows, axis=1)``, with ``products`` as scratch."""
    import numpy as np

    np.multiply(rows, rows, out=products)
    np.add.reduce(products, axis=1, out=norms)
    np.sqrt(norms, out=norms)


def _frame_workspace(m: int, count: int):
    """Buffers for ``_haar_frames`` on chunks of at most ``count`` frames: the
    draws, products and norms of one block, 3m + 1 doubles per frame."""
    import numpy as np

    size = min(_MC_BLOCK, count)
    return np.empty((size, 2, m)), np.empty((size, m)), np.empty(size)


def _haar_frames(m: int, count: int, seed: int, chunk_index: int, workspace):
    """Haar-distributed orthonormal 2-frames via Gaussian draws + Gram-Schmidt.

    Yields (start, omega, eta) for each block of at most ``_MC_BLOCK`` frames
    of the chunk, omega and eta as m x b coordinate rows of frames
    start..start+b-1.  Each chunk owns an independent counter-based substream
    keyed by (seed, chunk_index), so any partition of chunks across workers
    reproduces the sequential stream exactly.  The blocks are drawn in order,
    which gives the frames of drawing the chunk all at once; a degenerate draw
    (norm < 1e-12) is redrawn right after its block, not after the whole
    chunk.  Every block is drawn and orthonormalized in place, in
    ``workspace`` (from ``_frame_workspace``), so the rows yielded are views
    that the next block overwrites: evaluate them before asking for it, or
    copy them.  Evaluating touches no generator state.
    """
    import numpy as np

    key = (np.uint64(seed), np.uint64(chunk_index))
    rng = np.random.Generator(np.random.Philox(key=key))
    draws, products, norms = workspace
    for start in range(0, count, _MC_BLOCK):
        b = min(_MC_BLOCK, count - start)
        g, prod, norm = draws[:b], products[:b], norms[:b]
        rng.standard_normal(out=g)
        omega, v = g[:, 0, :], g[:, 1, :]
        while True:
            _row_norms(omega, prod, norm)
            bad = norm < 1e-12
            if not bad.any():
                break
            omega[bad] = rng.standard_normal((int(bad.sum()), m))
        np.divide(omega, norm[:, None], out=omega)
        np.multiply(v, omega, out=prod)
        np.add.reduce(prod, axis=1, out=norm)
        np.multiply(norm[:, None], omega, out=prod)
        np.subtract(v, prod, out=v)
        while True:
            _row_norms(v, prod, norm)
            bad = norm < 1e-12
            if not bad.any():
                break
            fresh = rng.standard_normal((int(bad.sum()), m))
            fresh -= (fresh * omega[bad]).sum(axis=1)[:, None] * omega[bad]
            v[bad] = fresh
        np.divide(v, norm[:, None], out=v)
        yield start, omega.T, v.T


def _eval_on_frames(p: Polynomial, omega, eta, vals):
    """Vectorized real-part evaluation of p on frames given as m x count
    coordinate rows, written into ``vals``, a row of count doubles.

    Each term starts from its first factor rather than from ones, and each
    power is raised into one reused scratch row: 1.0 * x == x, so the values
    are those of the product of every power with a row of ones.  The terms
    are added in the order of p's term dict, so the last bits depend on it.
    """
    import numpy as np

    m = p.m
    vals[:] = 0.0
    den = float(p._den)
    term, power = np.empty((2, vals.shape[0]))
    for key, (a, b) in p._terms.items():
        if not a:
            continue  # imaginary coefficients do not contribute to the real part
        e = exponents(key, m)
        factors = [(r, k) for i in range(m) for r, k in ((omega[i], e[i]), (eta[i], e[m + i])) if k]
        if not factors:
            vals += a / den
            continue
        np.power(*factors[0], out=term)
        for row, k in factors[1:]:
            term *= np.power(row, k, out=power)
        term *= a / den
        vals += term


def _chunk_sums(
    polys: Sequence[Polynomial], count: int, seed: int, chunk_index: int, vals, workspace
) -> List[Tuple[float, float]]:
    """(sum, sum of squares) of each polynomial's real part over one chunk.

    The chunk's frames are drawn block by block and each polynomial is
    evaluated into a chunk-length row of ``vals``, so a full row is summed
    exactly as if the chunk had been evaluated at once.  ``vals`` holds one
    row per polynomial, or a single row when there are more than 2m of them:
    then the chunk's frames are copied out block by block, the smaller of
    the two, and the polynomials take the row one at a time.  The frames are
    drawn in ``workspace``.
    """
    import numpy as np

    width = vals.shape[0]
    blocks = _haar_frames(polys[0].m, count, seed, chunk_index, workspace)
    if width < len(polys):
        blocks = [(start, omega.copy(), eta.copy()) for start, omega, eta in blocks]
    out = []
    for lo in range(0, len(polys), width):
        for start, omega, eta in blocks:
            stop = start + omega.shape[1]
            for t, q in enumerate(polys[lo : lo + width]):
                _eval_on_frames(q, omega, eta, vals[t, start:stop])
        for row in vals[:, :count]:
            total = float(row.sum())
            out.append((total, float(np.square(row, out=row).sum())))
    return out


def monte_carlo_many(
    polys: Sequence[Polynomial], n: int, seed: int
) -> List[Tuple[float, float]]:
    """(estimate, stderr) of the real part of each polynomial, sharing one
    frame stream across all of them.

    The chunks run on min(chunks, usable CPUs, ``_MC_MAX_WORKERS``) threads,
    worker w taking chunks w, w + workers, ...; numpy releases the
    interpreter lock in the draws and the ufuncs.  Each worker allocates its
    value rows once and returns each chunk's sums, which are added in chunk
    order, so the estimates do not depend on the number of workers, the
    block size or the number of polynomials.  One chunk or one CPU starts no
    thread, and the cap keeps memory from growing with the CPU count.
    """
    import threading

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
    if m < 2:
        raise ValueError(f"V_2(R^m) has no orthonormal 2-frame for m < 2, got m={m}")
    chunks = -(-n // _MC_CHUNK)
    workers = min(chunks, _usable_cpus(), _MC_MAX_WORKERS)
    # Up to 2m polynomials keep one value row each and take the frames block by
    # block as drawn.  More than that hold the chunk's 2m coordinate rows
    # instead, the smaller of the two, and take the polynomials one at a time.
    width = len(polys) if len(polys) <= 2 * m else 1
    results: List[List[Tuple[float, float]]] = [[] for _ in range(chunks)]
    errors: List[BaseException] = []
    # Each worker's value rows and workspace serve all its chunks, none longer
    # than its first.  They are allocated here, on the calling thread: with
    # glibc, a worker thread's own allocations come from a separate malloc
    # arena, which stays resident after the call and added about 0.5 MB to the
    # peak RSS of integrate_stiefel.
    buffers = []
    for w in range(workers):
        first = min(_MC_CHUNK, n - w * _MC_CHUNK)
        buffers.append((np.empty((width, first)), _frame_workspace(m, first)))

    def work(w):
        try:
            for c in range(w, chunks, workers):
                if errors:  # another worker failed, and its error is the one raised
                    return
                results[c] = _chunk_sums(polys, min(_MC_CHUNK, n - c * _MC_CHUNK), seed, c, *buffers[w])
        except BaseException as exc:  # re-raised below, on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,), daemon=True) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    out = []
    for t in range(len(polys)):
        total = sq = 0.0
        for chunk in results:  # not sum(), which compensates from Python 3.12 on
            total += chunk[t][0]
            sq += chunk[t][1]
        mean = total / n
        var = max(sq / n - mean * mean, 0.0)
        out.append((mean, sqrt(var / n)))
    return out


def stiefel_monte_carlo(p: Polynomial, n: int, seed: int = 0) -> Tuple[float, float]:
    """Plain Monte Carlo average of p over Haar frames; deterministic per seed.

    Estimates the real part of the integrand; split a complex polynomial into
    real and imaginary parts to estimate both.
    """
    return monte_carlo_many([p], n, seed)[0]
