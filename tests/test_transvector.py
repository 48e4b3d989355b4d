from fractions import Fraction

import pytest

from harmonic2v import (
    GeneratorTag,
    NotDoubleHarmonic,
    Polynomial,
    apply_generator,
    extremal_projection_s,
    extremal_projection_u,
    extremal_projection_x,
    verify_quadratic_relations,
)
from harmonic2v.operators import laplacian_u, laplacian_x, mul_normsq_u
from harmonic2v.sampling import random_double_harmonic, random_polynomial
from harmonic2v.transvector import chain, generator_chain, is_double_harmonic

from conftest import inner_ux, normsq_x, one, poly


def test_projection_of_x1_squared():
    m = 5
    got = extremal_projection_x(poly("x1^2", m))
    assert got == poly("x1^2", m) - normsq_x(m).scaled(Fraction(1, 5))
    assert laplacian_x(got).is_zero()


def test_projection_kills_normsq():
    m = 5
    assert extremal_projection_x(normsq_x(m)).is_zero()
    assert extremal_projection_s(mul_normsq_u(normsq_x(m))).is_zero()


def test_projection_fixes_harmonics():
    m = 5
    h = poly("x1*x2", m)  # harmonic: no repeated variable
    assert extremal_projection_x(h) == h


def test_projection_is_idempotent(rng):
    for m in (5, 6):
        for _ in range(4):
            p = random_polynomial(m, 3, 3, rng)
            px = extremal_projection_x(p)
            assert extremal_projection_x(px) == px
            ps = extremal_projection_s(p)
            assert extremal_projection_s(ps) == ps


def test_projection_s_annihilated_by_both_laplacians(rng):
    m = 5
    for _ in range(6):
        p = random_polynomial(m, 4, 4, rng)
        ps = extremal_projection_s(p)
        assert laplacian_x(ps).is_zero() and laplacian_u(ps).is_zero()


def test_projection_s_factor_order_is_immaterial(rng):
    m = 5
    for _ in range(4):
        p = random_polynomial(m, 3, 3, rng)
        assert extremal_projection_x(extremal_projection_u(p)) == extremal_projection_u(
            extremal_projection_x(p)
        )


def test_projection_s_fixes_double_harmonics():
    m = 5
    assert extremal_projection_s(poly("x1*u1", m)) == poly("x1*u1", m)


def test_projection_s_on_x1sq_u1sq():
    m = 5
    p = poly("x1^2*u1^2", m)
    ps = extremal_projection_s(p)
    assert laplacian_x(ps).is_zero() and laplacian_u(ps).is_zero()
    # the double-harmonic layer of the (0,0) Fischer cell
    from harmonic2v.fischer import _pi_ij

    assert ps == _pi_ij(p, 0, 0)


def test_generator_examples():
    m = 5
    assert apply_generator(GeneratorTag.S_X, poly("u1", m)) == poly("x1", m)
    assert apply_generator(GeneratorTag.S_U, poly("x1", m)) == poly("u1", m)
    assert apply_generator(GeneratorTag.C, one(m)) == inner_ux(m)
    c1 = apply_generator(GeneratorTag.C, one(6))
    assert apply_generator(GeneratorTag.A, c1) == Polynomial.constant(6, 6)


def test_chain_mixes_atoms_and_generators_rightmost_first():
    m = 5
    # C[1] = <u,x>; then |u|^2 gives |u|^2 <u,x>
    assert chain(one(m), (mul_normsq_u, GeneratorTag.C)) == mul_normsq_u(inner_ux(m))

    def never(p):
        raise AssertionError("step applied after a zero image")

    assert chain(poly("u1", m), (never, laplacian_x)).is_zero()


def test_generator_rejects_non_double_harmonic():
    with pytest.raises(NotDoubleHarmonic):
        apply_generator(GeneratorTag.S_X, poly("x1^2", 5))


def test_generator_rejects_small_dimension():
    with pytest.raises(ValueError):
        apply_generator(GeneratorTag.C, one(4))


def test_generators_preserve_double_harmonicity_and_shift(rng):
    from harmonic2v import GENERATOR_SHIFT

    for m in (5, 6):
        for _ in range(4):
            k, l = rng.randint(1, 3), rng.randint(1, 3)
            h = random_double_harmonic(m, k, l, rng)
            for tag in GeneratorTag:
                image = apply_generator(tag, h)
                assert is_double_harmonic(image)
                if not image.is_zero():
                    dk, dl = GENERATOR_SHIFT[tag]
                    assert image.bidegree() == (k + dk, l + dl)


def test_quadratic_relations_hold(rng):
    for m in (5, 6, 7):
        samples = [
            random_double_harmonic(m, rng.randint(0, 3), rng.randint(0, 3), rng)
            for _ in range(8)
        ]
        report = verify_quadratic_relations(samples)
        assert set(report) == {"A*S_x", "A*S_u", "S_u*C", "S_x*C", "[S_x,S_u]", "A*C"}
        for name, flags in report.items():
            assert all(flags), name


def test_skew_generators_commute_on_balanced_bidegree(rng):
    # at k = l the right-hand side of the [S_x, S_u] relation vanishes
    m = 5
    for k in (1, 2):
        h = random_double_harmonic(m, k, k, rng)
        assert generator_chain(h, (GeneratorTag.S_X, GeneratorTag.S_U)) == generator_chain(
            h, (GeneratorTag.S_U, GeneratorTag.S_X)
        )


def test_ac_on_constants_gives_m():
    for m in (5, 6, 7):
        got = generator_chain(one(m), (GeneratorTag.A, GeneratorTag.C))
        assert got == Polynomial.constant(m, m)
