from fractions import Fraction

from harmonic2v import (
    GaussianRational,
    GeneratorTag,
    Polynomial,
    double_fischer,
    extremal_projection_s,
    fischer_inner_product,
    generator_chain,
)
from harmonic2v.fischer import mul_norm_powers
from harmonic2v.operators import laplacian_u, laplacian_x, mul_normsq_u, mul_normsq_x
from harmonic2v.rationals import GAUSSIAN_I
from harmonic2v.sampling import random_bihomogeneous, random_double_harmonic

from conftest import normsq_x, one, poly
from reference import fischer_inner_product_by_differentiation


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
            total = total + mul_norm_powers(comp.part, comp.i, comp.j)
        assert total == p


def test_double_fischer_layers_are_orthogonal(rng):
    m = 5
    p = random_bihomogeneous(m, 4, 2, rng)
    embedded = [mul_norm_powers(c.part, c.i, c.j) for c in double_fischer(p)]
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
    c1 = generator_chain(one(m), (GeneratorTag.C,))
    lhs = fischer_inner_product(c1, c1)
    rhs = fischer_inner_product(one(m), generator_chain(c1, (GeneratorTag.A,)))
    assert lhs == rhs == 6


def test_skew_adjoint_value():
    m = 5
    su = generator_chain(poly("x1", m), (GeneratorTag.S_U,))
    sx = generator_chain(poly("u1", m), (GeneratorTag.S_X,))
    assert fischer_inner_product(su, poly("u1", m)) == 1
    assert fischer_inner_product(poly("x1", m), sx) == 1


def test_verify_adjoints_report(rng):
    # <Cp,q> = <p,Aq> and <S_u p,q> = <p,S_x q> on double harmonics, and pi_s
    # self-adjoint on arbitrary polynomials
    m = 5
    for _ in range(10):
        p = random_bihomogeneous(m, rng.randint(1, 3), rng.randint(1, 3), rng)
        q = random_bihomogeneous(m, rng.randint(1, 3), rng.randint(1, 3), rng)
        hp, hq = extremal_projection_s(p), extremal_projection_s(q)
        assert fischer_inner_product(hp, q) == fischer_inner_product(p, hq)
        for left, right in ((GeneratorTag.C, GeneratorTag.A), (GeneratorTag.S_U, GeneratorTag.S_X)):
            lhs = fischer_inner_product(generator_chain(hp, (left,)), hq)
            assert lhs == fischer_inner_product(hp, generator_chain(hq, (right,)))
