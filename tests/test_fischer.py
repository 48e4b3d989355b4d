from fractions import Fraction

import pytest

from harmonic2v import (
    GaussianRational,
    GeneratorTag,
    Polynomial,
    apply_generator,
    double_fischer,
    fischer_inner_product,
    sphere_fischer_project,
    verify_adjoints,
)
from harmonic2v.operators import laplacian_u, laplacian_x, mul_normsq_u, mul_normsq_x
from harmonic2v.rationals import GAUSSIAN_I
from harmonic2v.sampling import random_bihomogeneous, random_double_harmonic

from conftest import normsq_u, normsq_x, one, poly
from reference import fischer_inner_product_by_differentiation


def test_sphere_fischer_layer_zero_is_plain_projection():
    m = 5
    h = poly("x1*x2", m)
    assert sphere_fischer_project(h, 0, "x") == h


def test_sphere_fischer_layer_one_of_normsq():
    m = 5
    got = sphere_fischer_project(normsq_x(m), 1, "x")
    assert got == normsq_x(m)
    assert sphere_fischer_project(normsq_x(m), 0, "x").is_zero()


def test_sphere_fischer_layer_one_of_harmonic_vanishes():
    m = 5
    assert sphere_fischer_project(poly("x1*x2", m), 1, "x").is_zero()


def test_sphere_fischer_layers_sum_to_input(rng):
    for m in (5, 6):
        for _ in range(4):
            p = random_bihomogeneous(m, 4, rng.randint(0, 2), rng)
            total = Polynomial.zero(m)
            for s in range(3):
                layer = sphere_fischer_project(p, s, "x")
                assert sphere_fischer_project(p.swap_vectors(), s, "u") == layer.swap_vectors()
                total = total + layer
            assert total == p


def test_sphere_fischer_rejects_an_unknown_axis():
    with pytest.raises(ValueError, match="axis"):
        sphere_fischer_project(poly("x1^2*u1", 5), 1, "y")


def test_double_fischer_of_x1_squared():
    m = 5
    comps = {(c.i, c.j): c.part for c in double_fischer(poly("x1^2", m))}
    assert set(comps) == {(0, 0), (1, 0)}
    assert comps[(0, 0)] == poly("x1^2", m) - normsq_x(m).scaled(Fraction(1, 5))
    assert comps[(1, 0)] == Polynomial.constant(m, Fraction(1, 5))


def test_double_fischer_of_double_harmonic_is_single_layer(rng):
    m = 5
    h = random_double_harmonic(m, 2, 2, rng)
    comps = double_fischer(h)
    assert len(comps) == 1 and (comps[0].i, comps[0].j) == (0, 0)
    assert comps[0].part == h


def test_double_fischer_of_normsq_product():
    m = 5
    p = mul_normsq_u(normsq_x(m))
    comps = {(c.i, c.j): c.part for c in double_fischer(p)}
    assert set(comps) == {(1, 1)}
    assert comps[(1, 1)] == one(m)


def test_double_fischer_reconstructs_and_layers_are_harmonic(rng):
    cases = [(5, 6, 6), (6, 6, 6), (7, 6, 6), (6, 4, 3), (7, 3, 4)]
    for m, k, l in cases:
        p = random_bihomogeneous(m, k, l, rng)
        total = Polynomial.zero(m)
        for comp in double_fischer(p):
            assert laplacian_x(comp.part).is_zero()
            assert laplacian_u(comp.part).is_zero()
            total = total + comp.embedded()
        assert total == p


def test_double_fischer_layers_are_orthogonal(rng):
    m = 5
    p = random_bihomogeneous(m, 4, 2, rng)
    embedded = [c.embedded() for c in double_fischer(p)]
    for i in range(len(embedded)):
        for j in range(i + 1, len(embedded)):
            assert fischer_inner_product(embedded[i], embedded[j]).is_zero()


def test_inner_product_examples():
    m = 5
    assert fischer_inner_product(poly("x1^2", m), poly("x1^2", m)) == 2
    assert fischer_inner_product(poly("x1", m), poly("u1", m)).is_zero()
    assert fischer_inner_product(poly("i*x1", m), poly("x1", m)) == -GAUSSIAN_I


def test_inner_product_matches_differentiation_oracle(rng):
    m = 5
    for _ in range(6):
        p = random_bihomogeneous(m, rng.randint(0, 3), rng.randint(0, 3), rng)
        q = random_bihomogeneous(m, rng.randint(0, 3), rng.randint(0, 3), rng)
        assert fischer_inner_product(p, q) == fischer_inner_product_by_differentiation(p, q)


def test_inner_product_positive_definite(rng):
    m = 5
    for _ in range(6):
        p = random_bihomogeneous(m, rng.randint(0, 3), rng.randint(0, 3), rng)
        norm = fischer_inner_product(p, p)
        assert norm.im == 0 and norm.re > 0


def test_inner_product_sesquilinear(rng):
    m = 5
    p = random_bihomogeneous(m, 2, 1, rng)
    q = random_bihomogeneous(m, 2, 1, rng)
    z = GaussianRational(Fraction(2, 3), Fraction(-1, 2))
    assert fischer_inner_product(p.scaled(z), q) == z.conjugate() * fischer_inner_product(p, q)
    assert fischer_inner_product(p, q.scaled(z)) == z * fischer_inner_product(p, q)


def test_normsq_and_laplacian_are_adjoint(rng):
    m = 5
    for _ in range(5):
        p = random_bihomogeneous(m, 2, 2, rng)
        q = random_bihomogeneous(m, 4, 2, rng)
        assert fischer_inner_product(mul_normsq_x(p), q) == fischer_inner_product(
            p, laplacian_x(q)
        )


def test_creation_annihilation_adjoint_value():
    m = 6
    c1 = apply_generator(GeneratorTag.C, one(m))
    lhs = fischer_inner_product(c1, c1)
    rhs = fischer_inner_product(one(m), apply_generator(GeneratorTag.A, c1))
    assert lhs == rhs == 6


def test_skew_adjoint_value():
    m = 5
    su = apply_generator(GeneratorTag.S_U, poly("x1", m))
    sx = apply_generator(GeneratorTag.S_X, poly("u1", m))
    assert fischer_inner_product(su, poly("u1", m)) == 1
    assert fischer_inner_product(poly("x1", m), sx) == 1


def test_verify_adjoints_report(rng):
    m = 5
    pairs = [
        (
            random_bihomogeneous(m, rng.randint(1, 3), rng.randint(1, 3), rng),
            random_bihomogeneous(m, rng.randint(1, 3), rng.randint(1, 3), rng),
        )
        for _ in range(10)
    ]
    report = verify_adjoints(pairs)
    assert all(all(v) for v in report.values())
