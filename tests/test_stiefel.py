import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from harmonic2v import cli, stiefel
from harmonic2v import (
    GaussianRational,
    GeneratorTag,
    Monomial,
    Polynomial,
    a_c_power_constant,
    c_power_one,
    gamma_constant,
    gegenbauer,
    generator_chain,
    ladder_c,
    monte_carlo_many,
    sphere_integrate,
    stiefel_integrate,
    stiefel_monte_carlo,
)
from harmonic2v.fischer import _pi_ij
from harmonic2v.operators import cross_dd, mul_inner_ux, mul_normsq_u, mul_normsq_x
from harmonic2v.sampling import random_bihomogeneous, random_coefficient
from harmonic2v.stiefel import (
    _MC_BLOCK,
    _MC_CHUNK,
    _diagonal_terms,
    _eval_on_frames,
    _frame_workspace,
    _haar_frames,
)
from harmonic2v.transvector import chain

from conftest import inner_ux, normsq_u, normsq_x, one, poly, random_polynomial
from reference import (
    FRAMES_PER_CHUNK,
    a_c_power_closed_form,
    gamma_closed_form,
    monte_carlo_whole_chunks,
    stiefel_fibration_integral,
    stiefel_full_chain_integral,
)


def test_gegenbauer_low_degrees():
    lam = Fraction(3, 2)
    assert gegenbauer(0, lam) == {0: Fraction(1)}
    assert gegenbauer(1, lam) == {1: 2 * lam}
    assert gegenbauer(2, lam) == {2: 2 * lam * (lam + 1), 0: -lam}


def test_c_power_one_small_cases():
    m = 5
    assert c_power_one(0, m) == one(m)
    assert c_power_one(1, m) == inner_ux(m)
    m = 6
    expected = inner_ux(m) * inner_ux(m) - mul_normsq_u(normsq_x(m)).scaled(Fraction(1, m))
    assert c_power_one(2, m) == expected


@pytest.mark.parametrize("m", [5, 6])
def test_c_power_one_matches_iterated_creation(m):
    acc = one(m)
    for beta in range(7):
        assert c_power_one(beta, m) == acc
        acc = generator_chain(acc, (GeneratorTag.C,))


@pytest.mark.parametrize("beta", [1, 3, 5])
def test_c_power_one_odd_has_no_constant_on_frames(beta):
    # odd powers carry no <u,x>-free term, so they vanish on the frame manifold
    m = 5
    p = c_power_one(beta, m)
    degrees = {sum(mono.xexp) - sum(mono.uexp) for mono, _ in p.terms()}
    assert degrees == {0}
    assert _eval_at_unit_frame(p).is_zero()


def _eval_at_unit_frame(p: Polynomial) -> GaussianRational:
    """Exact evaluation at x = e1, u = e2 (an orthonormal pair)."""
    total = GaussianRational()
    for mono, coeff in p.terms():
        if any(e for i, e in enumerate(mono.xexp) if i != 0):
            continue
        if any(e for i, e in enumerate(mono.uexp) if i != 1):
            continue
        total = total + coeff
    return total


def test_a_c_power_constant_matches_ladder_product():
    for m in (5, 6):
        for beta in range(4):
            prod = Fraction(1)
            for i in range(1, 2 * beta + 1):
                prod *= ladder_c(i, 0, 0, m)
            assert a_c_power_constant(beta, m) == prod


def test_a_c_power_constant_matches_operator_iteration():
    m = 5
    for beta in (1, 2):
        p = c_power_one(2 * beta, m)
        w = generator_chain(p, (GeneratorTag.A,) * (2 * beta))
        assert w == Polynomial.constant(m, a_c_power_constant(beta, m))


def test_constants_match_their_closed_forms():
    # the library derives both from the ladder constant and the zonal coefficients
    for m in range(5, 41):
        for i in range(12):
            assert a_c_power_constant(i, m) == a_c_power_closed_form(i, m), (i, m)
            assert gamma_constant(i, m) == gamma_closed_form(i, m), (i, m)


def test_constants_argument_checks():
    with pytest.raises(ValueError, match="power must be non-negative"):
        a_c_power_constant(-1, 5)
    with pytest.raises(ValueError, match="index must be non-negative"):
        gamma_constant(-1, 5)
    with pytest.raises(ValueError, match="requires m > 4"):
        gamma_constant(1, 4)


def test_a_c_power_constant_below_the_theory_dimension():
    # At m = 2 the empty chain's ladder constant is 1, where the closed form
    # divides 0 by m/2 - 1 = 0; a nonempty chain still divides by zero.
    assert a_c_power_constant(0, 2) == 1
    with pytest.raises(ZeroDivisionError):
        a_c_power_closed_form(0, 2)
    with pytest.raises(ZeroDivisionError):
        a_c_power_constant(1, 2)


def test_gamma_zero_is_one():
    for m in (5, 6, 7):
        assert gamma_constant(0, m) == 1


def test_gamma_signs_alternate():
    for m in (5, 6):
        for i in range(5):
            g = gamma_constant(i, m)
            assert g != 0 and (g > 0) == (i % 2 == 0)


def test_gamma_against_zonal_restriction_oracle():
    # gamma_i must equal (central value of C^{2i}[1] on a frame) divided by the
    # annihilation constant A^{2i} C^{2i} [1]; this is how the functional sends
    # the trivial component to its integral.
    for m in (5, 6):
        for i in range(4):
            central = _eval_at_unit_frame(c_power_one(2 * i, m))
            expected = Fraction(central.re) / a_c_power_constant(i, m)
            assert central.im == 0
            assert gamma_constant(i, m) == expected


def test_gamma_one_values():
    # forced by I(<u,x>^2) = 0 together with I(|x|^2|u|^2) = 1
    assert gamma_constant(1, 5) == Fraction(-1, 280)
    assert gamma_constant(1, 6) == Fraction(-1, 480)


def test_stiefel_normalization():
    for m in (5, 6):
        assert stiefel_integrate(one(m)).pizzetti_value == 1


def test_stiefel_square_moment():
    m = 5
    vals = [
        stiefel_integrate(poly(f"x{i}^2", m)).pizzetti_value for i in range(1, m + 1)
    ]
    # the coordinates are exchangeable and their squares sum to 1 on frames
    assert all(v == vals[0] for v in vals)
    assert sum((v.re for v in vals), Fraction(0)) == 1
    assert vals[0] == GaussianRational(Fraction(1, 5))


def test_stiefel_inner_product_vanishes():
    m = 5
    assert stiefel_integrate(poly("x1*u1", m)).pizzetti_value.is_zero()
    for r in (1, 2, 3):
        p = one(m)
        for _ in range(r):
            p = mul_inner_ux(p)
        assert stiefel_integrate(p).pizzetti_value.is_zero()


def test_stiefel_odd_bidegree_vanishes(rng):
    m = 5
    p = random_bihomogeneous(m, 3, 2, rng, complex_coeff=False)
    assert stiefel_integrate(p).pizzetti_value.is_zero()


def test_stiefel_invariance_identities(rng):
    m = 5
    bidegrees = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(5)] + [(4, 4)]
    for k, l in bidegrees:
        p = random_bihomogeneous(m, k, l, rng)
        base = stiefel_integrate(p).pizzetti_value
        assert stiefel_integrate(mul_normsq_x(p)).pizzetti_value == base
        assert stiefel_integrate(mul_normsq_u(p)).pizzetti_value == base
        assert stiefel_integrate(mul_inner_ux(p)).pizzetti_value.is_zero()


def _rotation_images(m, c, s):
    """Exact rotation by (cos, sin) = (c, s) in the (1, 2) coordinate plane."""
    images = {}
    for axis in ("x", "u"):
        v1 = Polynomial.variable(m, axis, 1)
        v2 = Polynomial.variable(m, axis, 2)
        images[(axis, 1)] = v1.scaled(c) + v2.scaled(s)
        images[(axis, 2)] = v1.scaled(-s) + v2.scaled(c)
        for i in range(3, m + 1):
            images[(axis, i)] = Polynomial.variable(m, axis, i)
    return images


def _substitute(p, images):
    total = Polynomial.zero(p.m)
    for mono, coeff in p.terms():
        term = Polynomial.constant(p.m, coeff)
        for i, e in enumerate(mono.xexp):
            for _ in range(e):
                term = term * images[("x", i + 1)]
        for i, e in enumerate(mono.uexp):
            for _ in range(e):
                term = term * images[("u", i + 1)]
        total = total + term
    return total


def test_stiefel_rotation_invariance(rng):
    m = 5
    images = _rotation_images(m, Fraction(3, 5), Fraction(4, 5))
    for _ in range(3):
        p = random_bihomogeneous(m, 2, 2, rng)
        rotated = _substitute(p, images)
        assert stiefel_integrate(rotated).pizzetti_value == stiefel_integrate(p).pizzetti_value


def test_stiefel_matches_sphere_marginal():
    # the first frame vector is uniform on the sphere, so x-only integrands
    # must agree with the normalized classical sphere average
    m = 5
    area = sphere_integrate(one(m)).coefficient
    for expr in ["x1^2", "x1^4", "x1^2*x2^2", "x1^4*x2^2", "x1^6", "x1^2*x2^2*x3^2"]:
        p = poly(expr, m)
        assert stiefel_integrate(p).pizzetti_value == sphere_integrate(p).coefficient / area


def _even_exponent_draw(m, rng, terms=3, complex_coeff=False):
    """Combination of monomials with every exponent even, bidegree <= (8, 8)."""
    k, l = rng.randint(0, 4), rng.randint(0, 4)
    data = {}
    for _ in range(terms):
        xe, ue = [0] * m, [0] * m
        for _ in range(k):
            xe[rng.randrange(m)] += 2
        for _ in range(l):
            ue[rng.randrange(m)] += 2
        data[Monomial(tuple(xe), tuple(ue))] = random_coefficient(rng, complex_coeff)
    return Polynomial(m, data)


def test_stiefel_matches_fibration_oracle(rng):
    even = [_even_exponent_draw(rng.randint(5, 8), rng) for _ in range(40)]
    mixed = []
    for _ in range(40):
        m = rng.randint(5, 8)
        tail = random_bihomogeneous(m, 2 * rng.randint(0, 1), 2 * rng.randint(0, 1), rng, terms=2)
        mixed.append(random_polynomial(m, 4, 4, rng) + mul_inner_ux(mul_inner_ux(tail)))
    nonzero = 0
    for p in even + mixed:
        value = stiefel_integrate(p).pizzetti_value
        assert value == stiefel_fibration_integral(p)
        nonzero += not value.is_zero()
    assert nonzero >= 40  # 49 of the 80 draws at this seed


@pytest.mark.parametrize("m", [5, 6, 8, 9])
def test_stiefel_matches_full_chain_oracle(m, rng):
    # complex coefficients throughout; the mixed draws add parts of odd bidegree,
    # odd-exponent terms x_a x_b u_a u_b q that integrate to nonzero, and a
    # <u,x>^2 multiple that vanishes on the manifold
    even = [_even_exponent_draw(m, rng, complex_coeff=True) for _ in range(8)]
    mixed = []
    for _ in range(6):
        a, b = rng.sample(range(1, m + 1), 2)
        odd = poly(f"x{a}*x{b}*u{a}*u{b}", m) * _even_exponent_draw(m, rng, terms=2, complex_coeff=True)
        tail = random_bihomogeneous(m, 2 * rng.randint(0, 1), 2 * rng.randint(0, 1), rng, terms=2)
        mixed.append(random_polynomial(m, 4, 4, rng, parts=3) + odd + mul_inner_ux(mul_inner_ux(tail)))
    nonzero = 0
    for p in even + mixed:
        value = stiefel_integrate(p).pizzetti_value
        assert value == stiefel_full_chain_integral(p) == stiefel_fibration_integral(p)
        nonzero += not value.is_zero()
    assert nonzero >= 10


def test_cross_dd_chain_of_off_diagonal_terms_has_no_constant(rng):
    # A keeps alpha - beta of x^alpha u^beta, so only x^c u^c reaches the constant
    for m in (5, 8):
        for k, l in ((2, 2), (4, 2), (4, 4), (6, 4)):
            part = random_bihomogeneous(m, k, l, rng, complex_coeff=True)
            part = part + mul_normsq_x(mul_normsq_u(random_bihomogeneous(m, k - 2, l - 2, rng)))
            for i in range(1, l // 2 + 1):
                layer = _pi_ij(part, k // 2 - i, l // 2 - i)
                diagonal = _diagonal_terms(layer)
                off = layer - diagonal
                assert not off.is_zero()
                assert chain(off, (cross_dd,) * (2 * i)).constant_term().is_zero()
                full = chain(layer, (cross_dd,) * (2 * i)).constant_term()
                assert chain(diagonal, (cross_dd,) * (2 * i)).constant_term() == full


def test_sphere_surface_area_m4():
    result = sphere_integrate(poly("1", 4))
    assert result.coefficient == 2 and result.pi_power == 2
    assert str(result) == "2 * pi^2"


@pytest.mark.parametrize(
    "m, area",
    [
        (1, "2 * pi^0"),
        (2, "2 * pi^1"),
        (3, "4 * pi^1"),
        (4, "2 * pi^2"),
        (5, "8/3 * pi^2"),
        (6, "1 * pi^3"),
        (7, "16/15 * pi^3"),
        (8, "1/3 * pi^4"),
    ],
)
def test_sphere_surface_areas(m, area):
    # the classical |S^{m-1}| = 2 pi^{m/2} / Gamma(m/2) for both parities of m
    assert str(sphere_integrate(one(m))) == area


def test_sphere_odd_vanishes():
    assert sphere_integrate(poly("x1", 5)).coefficient.is_zero()


def test_sphere_normsq_restriction():
    for m in (4, 5, 6):
        area = sphere_integrate(one(m))
        lifted = sphere_integrate(normsq_x(m))
        assert lifted == area


def test_sphere_rejects_u_variables():
    for text in ("u1", "x1^2 + x2*u1"):
        with pytest.raises(ValueError):
            sphere_integrate(poly(text, 5))


def _double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@pytest.mark.parametrize("m", [4, 5, 6])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_sphere_moments_match_classical_values(m, k):
    # E[x1^{2k}] on S^{m-1} equals (2k-1)!! / (m (m+2) ... (m+2k-2))
    num = sphere_integrate(poly(f"x1^{2*k}", m))
    den = sphere_integrate(one(m))
    expected = Fraction(_double_factorial(2 * k - 1))
    for t in range(k):
        expected /= m + 2 * t
    assert num.pi_power == den.pi_power
    assert num.coefficient / den.coefficient == GaussianRational(expected)


def test_sphere_series_reordering_invariance():
    # summing the Pizzetti terms in the reverse order gives the same exact value
    from harmonic2v.operators import laplacian_x
    from harmonic2v.rationals import rising
    from math import factorial

    m = 5
    p = poly("x1^4 + x1^2*x2^2", m)
    terms = []
    q = p
    k = 0
    while not q.is_zero():
        coeff = Fraction(1, 4**k * factorial(k)) / rising(Fraction(m, 2), k)
        terms.append(q.constant_term() * coeff)
        q = laplacian_x(q)
        k += 1
    forward = GaussianRational()
    for t in terms:
        forward = forward + t
    backward = GaussianRational()
    for t in reversed(terms):
        backward = backward + t
    assert forward == backward
    direct = sphere_integrate(p)
    area = sphere_integrate(one(m))
    assert direct.coefficient == forward * area.coefficient


def test_monte_carlo_constant_is_exact():
    est, err = stiefel_monte_carlo(one(5), 1000, seed=1)
    assert est == 1.0 and err == 0.0


def test_monte_carlo_needs_a_dimension_with_2_frames(monkeypatch):
    # V_2(R^1) has no orthonormal 2-frame, so a redraw of the second vector
    # could never end: the call must fail before it draws anything
    def no_draw(*args):
        raise AssertionError("frames were drawn")

    for m in (2, 4):
        assert stiefel_monte_carlo(one(m), 10, 0) == (1.0, 0.0)
    monkeypatch.setattr(stiefel, "_haar_frames", no_draw)
    with pytest.raises(ValueError, match="m=1"):
        stiefel_monte_carlo(one(1), 10, 0)
    with pytest.raises(ValueError, match="m=1"):
        monte_carlo_many([one(1), poly("x1^2", 1)], 3 * _MC_CHUNK, 0)


def test_monte_carlo_inner_product_is_tiny():
    est, err = stiefel_monte_carlo(inner_ux(5), 1000, seed=1)
    assert abs(est) < 1e-12


def test_monte_carlo_deterministic():
    p = poly("x1^2", 5)
    assert stiefel_monte_carlo(p, 5000, seed=9) == stiefel_monte_carlo(p, 5000, seed=9)
    a = stiefel_monte_carlo(p, 5000, seed=9)
    b = stiefel_monte_carlo(p, 5000, seed=10)
    assert a != b


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_monte_carlo_rejects_seed_outside_64_bits(seed):
    # Philox takes a 64-bit key word; a masked seed would alias -1 to 2^64 - 1
    p = poly("x1^2*u2^2", 5)
    with pytest.raises(ValueError, match="seed"):
        stiefel_monte_carlo(p, 100, seed)
    with pytest.raises(ValueError, match="seed"):
        monte_carlo_many([p], 100, seed)


def test_monte_carlo_accepts_largest_seed():
    p = poly("x1^2*u2^2", 5)
    assert stiefel_monte_carlo(p, 100, 2**64 - 1) != stiefel_monte_carlo(p, 100, 0)


def test_monte_carlo_partition_invariance():
    # accumulating whole chunks on separate workers, each evaluating its
    # chunk block by block into one chunk-length row, reproduces the
    # sequential estimate bit for bit
    p = poly("x1^2*u2^2", 5)
    n, seed = 150_000, 4
    seq_est, seq_err = stiefel_monte_carlo(p, n, seed)
    # chunks 0-1 hold 65,536 frames each and chunk 2 the last 18,928
    plan = [(0, FRAMES_PER_CHUNK), (1, FRAMES_PER_CHUNK), (2, n - 2 * FRAMES_PER_CHUNK)]
    total, sq = 0.0, 0.0
    for part in (plan[:1], plan[1:]):
        for chunk_index, count in part:
            vals = np.empty(count)
            for start, omega, eta in _haar_frames(p.m, count, seed, chunk_index, _frame_workspace(p.m, count)):
                assert omega.shape == eta.shape == (p.m, min(_MC_BLOCK, count - start))
                _eval_on_frames(p, omega, eta, vals[start : start + omega.shape[1]])
            total += float(vals.sum())
            sq += float((vals * vals).sum())
    import math

    mean = total / n
    err = math.sqrt(max(sq / n - mean * mean, 0.0) / n)
    assert mean == seq_est and err == seq_err


def _mc_polys(m):
    return [
        poly("x1^2*u2^2", m),
        poly(f"(1/2-3/4*i)*x1^3*u{m}^3 + i*x2^2 - 2/7*x{m}^5*u1*u2^4", m),
        poly("7/3", m),
        poly(f"x1*x2*u1*u2 + 5*x{m - 1}^2*u{m}^6 - 3*u1^2", m),
    ]


# numpy sums a row of 8 or more terms pairwise and a shorter one in sequence;
# the sample counts straddle a block (4,096 frames) and a chunk (65,536 frames)
@pytest.mark.parametrize("m", [5, 7, 8, 9, 16])
def test_monte_carlo_matches_whole_chunk_oracle(m):
    polys = _mc_polys(m)
    for n in (1, 4095, 4097, 65537, 150000):
        got = monte_carlo_many(polys, n, seed=m + n)
        assert got == monte_carlo_whole_chunks(polys, n, seed=m + n), n


def test_monte_carlo_with_more_than_2m_polynomials_matches_whole_chunk_oracle():
    # beyond 2m polynomials the chunk's frames are held and the polynomials
    # evaluated one at a time; the bytes are those of the shared stream
    m = 5
    polys = [poly(f"x{k}^2*u{j}^2 - {k}/{j}*x{j}*u{k}", m) for k in range(1, 5) for j in range(1, 4)]
    assert len(polys) > 2 * m
    for n in (4097, 65537 + 4096):
        assert monte_carlo_many(polys, n, seed=n) == monte_carlo_whole_chunks(polys, n, seed=n), n
        assert monte_carlo_many(polys[:2], n, seed=n) == monte_carlo_many(polys, n, seed=n)[:2]


def _force_workers(monkeypatch, workers):
    # the worker count is min(chunks, usable CPUs, _MC_MAX_WORKERS)
    monkeypatch.setattr(stiefel, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(stiefel, "_MC_MAX_WORKERS", workers)


# one worker runs the chunks in order; two and three split 1, 2 or 4 chunks
# unevenly, the last of them short, and switch threads every few microseconds
@pytest.mark.parametrize("m", [5, 8, 9, 16])
def test_monte_carlo_bytes_do_not_depend_on_the_worker_count(m, monkeypatch):
    polys = _mc_polys(m)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for n in (1, 4095, 65536, 65537, 200_000):
            got = []
            for workers in (1, 2, 3):
                _force_workers(monkeypatch, workers)
                got.append(monte_carlo_many(polys, n, seed=n + m))
            assert got[0] == got[1] == got[2], n
    finally:
        sys.setswitchinterval(interval)


def test_monte_carlo_with_more_than_2m_polynomials_does_not_depend_on_the_worker_count(monkeypatch):
    m = 5
    polys = [poly(f"x{k}^2*u{j}^2 - {k}/{j}*x{j}*u{k}", m) for k in range(1, 5) for j in range(1, 4)]
    n = 3 * 65536 + 4097
    got = []
    for workers in (1, 2, 3):
        _force_workers(monkeypatch, workers)
        got.append(monte_carlo_many(polys, n, seed=7))
    assert got[0] == got[1] == got[2] == monte_carlo_whole_chunks(polys, n, seed=7)


def test_monte_carlo_starts_no_thread_for_one_chunk_or_one_cpu(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", no_thread)
    p = poly("x1^2*u2^2", 5)
    monkeypatch.setattr(stiefel, "_usable_cpus", lambda: 4)
    one_chunk = monte_carlo_many([p], _MC_CHUNK, seed=3)
    monkeypatch.setattr(stiefel, "_usable_cpus", lambda: 1)
    assert monte_carlo_many([p], _MC_CHUNK, seed=3) == one_chunk
    n = 2 * _MC_CHUNK + 1
    assert monte_carlo_many([p], n, seed=3) == monte_carlo_whole_chunks([p], n, seed=3)


def test_monte_carlo_workers_stop_at_the_cap(monkeypatch):
    # each worker adds its own workspace and value rows to peak memory
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Thread)
    monkeypatch.setattr(stiefel, "_usable_cpus", lambda: 64)
    p = poly("x1^2*u2^2", 5)
    n = 8 * _MC_CHUNK
    assert monte_carlo_many([p], n, seed=3) == monte_carlo_whole_chunks([p], n, seed=3)
    assert len(started) == stiefel._MC_MAX_WORKERS - 1


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(stiefel.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert stiefel._usable_cpus() == 3
    monkeypatch.delattr(stiefel.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(stiefel.os, "cpu_count", lambda: 6)
    assert stiefel._usable_cpus() == 6
    monkeypatch.setattr(stiefel.os, "cpu_count", lambda: None)
    assert stiefel._usable_cpus() == 1


# worker w runs chunks w, w + workers, ...: chunk 0 runs on the calling thread
# while the others are busy, chunks 1 and 2 on started threads
@pytest.mark.parametrize("workers, failing_chunk", [(2, 1), (3, 2), (2, 0)])
def test_monte_carlo_worker_out_of_memory_is_one_cli_error(workers, failing_chunk, monkeypatch, capsys):
    # the MemoryError reaches the caller only after every worker has ended
    chunk_sums = stiefel._chunk_sums
    raised_on = []

    def failing(polys, count, seed, chunk_index, *buffers):
        if chunk_index == failing_chunk:
            raised_on.append(threading.current_thread())
            raise MemoryError
        return chunk_sums(polys, count, seed, chunk_index, *buffers)

    _force_workers(monkeypatch, workers)
    monkeypatch.setattr(stiefel, "_chunk_sums", failing)
    before = threading.active_count()
    code = cli.main(["integrate", "--m", "5", "--poly", "x1^2", "--mc-samples", "200000", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"
    assert threading.active_count() == before
    assert (raised_on[0] is threading.main_thread()) == (failing_chunk == 0)


@pytest.mark.parametrize("m", [8, 32, 64])
def test_monte_carlo_memory_stays_near_a_few_blocks(m):
    # tracemalloc sees numpy's array memory: a block's frames and temporaries
    # (2m coordinate rows of 4,096 frames each) plus two chunk-length value
    # rows, far below one 2m x 65,536 buffer of the chunk's coordinate rows
    p = poly("x1^2*u1^2 + x2^2*u3^2", m)
    block = 2 * m * _MC_BLOCK * 8
    value_row = _MC_CHUNK * 8
    tracemalloc.start()
    try:
        stiefel_monte_carlo(p, 200_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * block + 2 * value_row


def test_monte_carlo_agrees_with_exact(rng):
    m = 5
    p = poly("x1^2", m)
    exact = float(stiefel_integrate(p).pizzetti_value.re)
    est, err = stiefel_monte_carlo(p, 200_000, seed=2)
    assert abs(est - exact) <= 4 * err


def test_monte_carlo_many_shares_frames():
    m = 5
    p = poly("x1^2", m)
    q = poly("x2^2", m)
    both = monte_carlo_many([p, q], 50_000, seed=3)
    assert both[0] == stiefel_monte_carlo(p, 50_000, seed=3)
    assert both[1] == stiefel_monte_carlo(q, 50_000, seed=3)


def test_quadrature_report_fields():
    report = stiefel_integrate(poly("x1^2", 5), mc_samples=20_000, seed=1)
    assert report.pizzetti_value == GaussianRational(Fraction(1, 5))
    assert report.samples == 20_000
    assert abs(report.mc_estimate - 0.2) <= 4 * report.mc_stderr
