"""The paper's operator identities, checked on the atom functions."""

from fractions import Fraction

import pytest

from harmonic2v import Polynomial
from harmonic2v.operators import (
    cross_dd,
    laplacian_u,
    laplacian_x,
    mul_inner_ux,
    mul_normsq_u,
    mul_normsq_x,
    skew_ux,
    skew_xu,
)
from harmonic2v.sampling import random_bihomogeneous, random_polynomial, seeded
from harmonic2v.transvector import GeneratorTag, apply_generator, chain, extremal_projection_s

from conftest import inner_ux, poly

#: Bidegree shift (dk, dl) of each atom on bihomogeneous input.
ATOM_SHIFT = {
    laplacian_x: (-2, 0),
    laplacian_u: (0, -2),
    mul_normsq_x: (2, 0),
    mul_normsq_u: (0, 2),
    mul_inner_ux: (1, 1),
    cross_dd: (-1, -1),
    skew_ux: (-1, 1),
    skew_xu: (1, -1),
}


def euler(p: Polynomial, axis: str) -> Polynomial:
    """The Euler operator E_x or E_u: each bihomogeneous part times its degree."""
    total = Polynomial.zero(p.m)
    for (k, l), part in p.bidegree_split().items():
        total = total + part.scaled(k if axis == "x" else l)
    return total


def commutator(a, b, p: Polynomial) -> Polynomial:
    return a(b(p)) - b(a(p))


def power(atom, n: int):
    return lambda p: chain(p, (atom,) * n)


def test_cross_dd_on_inner_ux():
    m = 5
    assert cross_dd(inner_ux(m)) == Polynomial.constant(m, m)


def test_laplacian_on_square():
    assert laplacian_x(poly("x1^2", 5)) == Polynomial.constant(5, 2)


def test_image_bidegree_convention_preserves_double_harmonics():
    # The skew generator S_x built with this convention must keep its image in
    # ker(Delta_x); evaluating the scale at the source bidegree would not.
    rng = seeded(5)
    for _ in range(5):
        h = extremal_projection_s(random_bihomogeneous(6, 3, 2, rng))
        image = apply_generator(GeneratorTag.S_X, h)
        assert laplacian_x(image).is_zero()


def test_atom_bidegree_signatures(rng):
    for m in (5, 6):
        for _ in range(5):
            k, l = rng.randint(0, 3), rng.randint(0, 3)
            p = random_bihomogeneous(m, k, l, rng)
            for atom, (dk, dl) in ATOM_SHIFT.items():
                image = atom(p)
                if not image.is_zero():
                    assert image.bidegree() == (k + dk, l + dl)


def test_apply_is_linear(rng):
    m = 5
    p = random_polynomial(m, 3, 3, rng)
    q = random_polynomial(m, 3, 3, rng)
    alpha, beta = Fraction(2, 3), Fraction(-5, 7)
    for atom in ATOM_SHIFT:
        assert atom(p.scaled(alpha) + q.scaled(beta)) == atom(p).scaled(alpha) + atom(q).scaled(beta)


def test_laplacian_normsq_commutator(rng):
    # [Delta_x, |x|^2] = 4 E_x + 2m
    m = 5
    for _ in range(20):
        p = random_polynomial(m, 3, 3, rng)
        rhs = euler(p, "x").scaled(4) + p.scaled(2 * m)
        assert commutator(laplacian_x, mul_normsq_x, p) == rhs


@pytest.mark.parametrize("a", [1, 2, 3])
def test_basic_skew_commutators(rng, a):
    # [<d_u,d_x>, |x|^{2a}] = 2a |x|^{2(a-1)} <x,d_u>, and its three companions
    m = 5
    for _ in range(20):
        p = random_polynomial(m, 3, 3, rng)
        assert commutator(cross_dd, power(mul_normsq_x, a), p) == chain(
            p, (mul_normsq_x,) * (a - 1) + (skew_xu,)
        ).scaled(2 * a)
        assert commutator(cross_dd, power(mul_normsq_u, a), p) == chain(
            p, (mul_normsq_u,) * (a - 1) + (skew_ux,)
        ).scaled(2 * a)
        assert commutator(skew_xu, power(laplacian_x, a), p) == chain(
            p, (laplacian_x,) * (a - 1) + (cross_dd,)
        ).scaled(-2 * a)
        assert commutator(skew_ux, power(laplacian_u, a), p) == chain(
            p, (laplacian_u,) * (a - 1) + (cross_dd,)
        ).scaled(-2 * a)


def test_laplacians_commute(rng):
    m = 5
    for _ in range(20):
        assert commutator(laplacian_x, laplacian_u, random_polynomial(m, 4, 4, rng)).is_zero()
