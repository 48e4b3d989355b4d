"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them live)."""

import itertools
import random
import time
from fractions import Fraction

from harmonic2v import (
    GaussianRational,
    GeneratorTag,
    Monomial,
    Polynomial,
    c_power_one,
    decompose_full,
    fischer_inner_product,
    generator_chain,
    highest_weight_vector,
    ladder_alpha,
    master_projection,
    monte_carlo_many,
    project_component,
    run_suite,
    sphere_integrate,
    stiefel_integrate,
    verify_component_orthogonality,
    verify_unit_argument_product,
    verify_g_vanishes,
    verify_product_transformation,
    verify_quadratic_relations,
    verify_whipple,
)
from harmonic2v.errors import GammaPole
from harmonic2v.fischer import double_fischer
from harmonic2v.operators import mul_inner_ux, mul_normsq_x
from harmonic2v.sampling import random_bihomogeneous, random_double_harmonic

from reference import peel_full


def _report(number: int, label: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"criterion {number:2d} [{label}]: {status}{suffix}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_01_worked_example_normalizers():
    t0 = time.monotonic()
    m = 6
    expected = {
        (0, 2): Fraction(1, 40),
        (1, 1): Fraction(5, 84),
        (0, 1): Fraction(1, 3),
        (2, 0): Fraction(1, 100),
        (1, 0): Fraction(4, 35),
    }
    ok = True
    for (i, j), value in expected.items():
        tk, tl = 3 - i + j, 2 - i - j
        ok = ok and Fraction(1) / ladder_alpha(i, j, i, j, tk, tl, m) == value
    # closed forms behind two of the constants
    ok = ok and Fraction(1, 100) == 1 / Fraction(2 * (m - 1) * (m + 4))
    ok = ok and Fraction(4, 35) == Fraction(m + 2, (m + 1) * (m + 4))
    ok = ok and Fraction(5, 84) == Fraction(m * (m + 4), 3 * (m - 2) * (m + 1) * (m + 6))

    rng = random.Random(32)
    p = random_bihomogeneous(m, 3, 2, rng, terms=5)
    layer = {(c.i, c.j): c.part for c in double_fischer(p)}[(0, 0)]
    top = project_component(layer, 0, 2)
    ok = ok and top.harmonic == generator_chain(
        layer, (GeneratorTag.S_X, GeneratorTag.S_X)
    ).scaled(Fraction(1, 40))
    direct = decompose_full(p)
    sequential = peel_full(p)
    ok = ok and direct.is_exact() and sequential.is_exact()
    ok = ok and [(e.a, e.b, e.component.index) for e in direct.entries] == [
        (e.a, e.b, e.component.index) for e in sequential.entries
    ]
    elapsed = time.monotonic() - t0
    _report(1, "worked-example constants", ok and elapsed < 10, f"{elapsed:.1f}s")


def test_criterion_02_round_trip_reconstruction():
    t0 = time.monotonic()
    ok = True
    count = 0
    for m in (5, 6, 7):
        rng = random.Random(1000 + m)
        for k in range(5):
            for l in range(5):
                for _ in range(50):
                    p = random_bihomogeneous(m, k, l, rng, terms=3)
                    if not decompose_full(p).is_exact():
                        ok = False
                    count += 1
    elapsed = time.monotonic() - t0
    _report(2, f"round trip x{count}", ok and elapsed < 300, f"{elapsed:.1f}s")


def test_criterion_03_quadratic_relations():
    ok = True
    for m in (5, 6, 7):
        rng = random.Random(2000 + m)
        samples = [
            random_double_harmonic(m, rng.randint(0, 3), rng.randint(0, 3), rng)
            for _ in range(20)
        ]
        report = verify_quadratic_relations(samples)
        ok = ok and len(report) == 6 and all(all(v) for v in report.values())
    _report(3, "six generator relations, 20 samples each", ok)


def test_criterion_04_ladder_oracle_equivalence():
    ok = True
    for m in (5, 6):
        # the suite compares every phi, psi, alpha and c_i with the generator chains
        report = run_suite("ladder", m, max_bidegree=3)
        ok = ok and report["passed"] and len(report["checks"]) == 306
        # it takes for granted that the ladder's cells are nonzero and end at j = k - l
        for k in range(4):
            for l in range(min(k, 2) + 1):
                hw = highest_weight_vector(k, l, m)
                for i in range(3):
                    for j in range(3):
                        cell = generator_chain(hw, (GeneratorTag.C,) * i + (GeneratorTag.S_U,) * j)
                        ok = ok and cell.is_zero() == (j > k - l)
    _report(4, "ladder constants vs operator chains", ok)


def test_criterion_05_master_projection():
    ok = True
    for m in (5, 6):
        for k in range(5):
            for l in range(min(k, 2) + 1):
                hw = highest_weight_vector(k, l, m)
                ok = ok and master_projection(hw) == hw
                for i in range(l + 1):
                    for j in range(l - i + 1):
                        if not 1 <= i + j <= 3:
                            continue
                        base = highest_weight_vector(k - i + j, l - i - j, m)
                        cell = generator_chain(
                            base, (GeneratorTag.C,) * i + (GeneratorTag.S_U,) * j
                        )
                        ok = ok and not cell.is_zero()
                        ok = ok and master_projection(cell).is_zero()
    _report(5, "projection is identity on simplicial, zero on cells", ok)


def test_criterion_06_orthogonality():
    ok = True
    rng = random.Random(6000)
    for k in range(4):
        for l in range(4):
            p = random_bihomogeneous(5, k, l, rng, terms=4)
            report = verify_component_orthogonality(decompose_full(p))
            ok = ok and report["passed"]
    _report(6, "pairwise component orthogonality", ok)


def test_criterion_07_projection_self_adjoint():
    ok = True
    rng = random.Random(7000)
    for k in range(4):
        for l in range(4):
            for _ in range(20):
                p = random_double_harmonic(5, k, l, rng, terms=3)
                q = random_double_harmonic(5, k, l, rng, terms=3)
                lhs = fischer_inner_product(master_projection(p), q)
                rhs = fischer_inner_product(p, master_projection(q))
                ok = ok and lhs == rhs
    _report(7, "self-adjointness of the cell projection", ok)


def test_criterion_08_appendix_certification():
    ok = True
    for m in (5, 6, 7):
        for k in range(5):
            for l in range(min(k, 3) + 1):
                for i in range(l + 1):
                    for j in range(l - i + 1):
                        if 1 <= i + j <= 3:
                            ok = ok and verify_g_vanishes(k, l, i, j, m)
    rng = random.Random(8000)
    whipple_done = 0
    while whipple_done < 10:
        a = Fraction(rng.randint(1, 6), 2)
        b = Fraction(rng.randint(1, 6), 2)
        z, n = rng.randint(0, 3), rng.randint(0, 2)
        u = Fraction(rng.randint(3, 9), 2)
        v = Fraction(rng.randint(3, 9), 2)
        w = a + b - z - n + 1 - u - v
        try:
            ok = ok and verify_whipple(a, b, z, n, u, v, w)
            whipple_done += 1
        except GammaPole:
            continue
    for _ in range(10):
        a = Fraction(rng.randint(1, 6), rng.choice((1, 2)))
        b = Fraction(rng.randint(1, 6), rng.choice((1, 2)))
        c = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        n = rng.randint(1, 3)
        z = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        ok = ok and verify_product_transformation(a, b, c, n, z)
        ok = ok and verify_unit_argument_product(a, b, c, n)
    _report(8, "vanishing sums + transformation identities", ok)


def test_criterion_09_gegenbauer_embedding():
    ok = True
    for m in (5, 6):
        acc = Polynomial.constant(m, 1)
        for beta in range(7):
            closed = c_power_one(beta, m)
            ok = ok and closed == acc
            if beta % 2:
                ok = ok and closed.constant_term().is_zero()
                ok = ok and _frame_value(closed).is_zero()
            acc = generator_chain(acc, (GeneratorTag.C,))
    _report(9, "zonal embedding closed form, degree <= 6", ok)


def _frame_value(p: Polynomial) -> GaussianRational:
    """Exact value at the orthonormal pair x = e1, u = e2."""
    total = GaussianRational()
    for mono, coeff in p.terms():
        if any(e for i, e in enumerate(mono.xexp) if i != 0):
            continue
        if any(e for i, e in enumerate(mono.uexp) if i != 1):
            continue
        total = total + coeff
    return total


def _canonical_class(e, m):
    return tuple(sorted((e[i], e[m + i]) for i in range(m)))


def test_criterion_10_pizzetti_vs_monte_carlo():
    t0 = time.monotonic()
    m = 5
    ok = True

    monos = []
    for total in range(7):
        for pick in itertools.combinations_with_replacement(range(2 * m), total):
            e = [0] * (2 * m)
            for v in pick:
                e[v] += 1
            monos.append(tuple(e))
    assert len(monos) == 8008

    # exact functional on every monomial; coordinate relabelling cannot change it
    exact = {}
    classes = {}
    for e in monos:
        p = Polynomial(m, {Monomial(e[:m], e[m:]): 1})
        exact[e] = stiefel_integrate(p).pizzetti_value
        classes.setdefault(_canonical_class(e, m), []).append(e)
    for members in classes.values():
        first = exact[members[0]]
        ok = ok and all(exact[e] == first for e in members)

    # Monte Carlo cross-check of one representative per class, shared frames
    reps = [members[0] for members in classes.values()]
    polys = [Polynomial(m, {Monomial(e[:m], e[m:]): 1}) for e in reps]
    results = monte_carlo_many(polys, 1_000_000, seed=0)
    worst = 0.0
    for e, (est, err) in zip(reps, results):
        target = float(exact[e].re)
        if err == 0.0:
            ok = ok and est == target
        else:
            z = abs(est - target) / err
            worst = max(worst, z)
            ok = ok and z <= 3.0

    # exact invariance identities and normalization
    one = Polynomial.constant(m, 1)
    ok = ok and stiefel_integrate(one).pizzetti_value == 1
    rng = random.Random(10_000)
    for _ in range(20):
        p = random_bihomogeneous(m, rng.randint(0, 3), rng.randint(0, 3), rng)
        base = stiefel_integrate(p).pizzetti_value
        ok = ok and stiefel_integrate(mul_normsq_x(p)).pizzetti_value == base
        ok = ok and stiefel_integrate(mul_inner_ux(p)).pizzetti_value.is_zero()

    elapsed = time.monotonic() - t0
    _report(
        10,
        f"{len(monos)} monomials, {len(reps)} MC classes",
        ok and elapsed < 120,
        f"max |z| = {worst:.2f}, {elapsed:.1f}s",
    )


def test_criterion_11_classical_sphere_pizzetti():
    value = sphere_integrate(Polynomial.constant(4, 1))
    ok = value.coefficient == 2 and value.pi_power == 2
    _report(11, "surface area of S^3 as 2 pi^2", ok, str(value))
