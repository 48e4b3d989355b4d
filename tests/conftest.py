import random
from fractions import Fraction

import pytest

from harmonic2v import Polynomial, parse_poly
from harmonic2v.operators import mul_inner_ux, mul_normsq_u, mul_normsq_x
from harmonic2v.sampling import random_bihomogeneous


@pytest.fixture
def rng():
    return random.Random(20240817)


def poly(text: str, m: int) -> Polynomial:
    return parse_poly(text, m)


def one(m: int) -> Polynomial:
    return Polynomial.constant(m, 1)


def normsq_x(m: int) -> Polynomial:
    return mul_normsq_x(one(m))


def normsq_u(m: int) -> Polynomial:
    return mul_normsq_u(one(m))


def inner_ux(m: int) -> Polynomial:
    return mul_inner_ux(one(m))


def frac(a, b=1) -> Fraction:
    return Fraction(a, b)


def random_polynomial(
    m: int,
    max_k: int,
    max_l: int,
    rng: random.Random,
    parts: int = 2,
    terms: int = 3,
    complex_coeff: bool = True,
) -> Polynomial:
    """A random mixed-bidegree polynomial with the given number of parts."""
    total = Polynomial.zero(m)
    for _ in range(parts):
        k = rng.randint(0, max_k)
        l = rng.randint(0, max_l)
        total = total + random_bihomogeneous(m, k, l, rng, terms, complex_coeff)
    if total.is_zero():
        total = Polynomial.constant(m, 1)
    return total
