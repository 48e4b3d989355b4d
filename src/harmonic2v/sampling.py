"""Deterministic random polynomial generators for the verification suites."""

from __future__ import annotations

import random
from fractions import Fraction

from .poly import Monomial, Polynomial
from .rationals import GaussianRational
from .transvector import extremal_projection_s


def _random_exponents(m: int, degree: int, rng: random.Random):
    exps = [0] * m
    for _ in range(degree):
        exps[rng.randrange(m)] += 1
    return tuple(exps)


def random_coefficient(rng: random.Random, complex_coeff: bool = True) -> GaussianRational:
    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    re = frac()
    im = frac() if complex_coeff and rng.random() < 0.4 else Fraction(0)
    if not re and not im:
        re = Fraction(1)
    return GaussianRational(re, im)


def random_bihomogeneous(
    m: int,
    k: int,
    l: int,
    rng: random.Random,
    terms: int = 4,
    complex_coeff: bool = True,
) -> Polynomial:
    """A sparse random polynomial, bihomogeneous of bidegree (k, l), never zero."""
    while True:
        data = {}
        for _ in range(terms):
            mono = Monomial(_random_exponents(m, k, rng), _random_exponents(m, l, rng))
            data[mono] = random_coefficient(rng, complex_coeff)
        p = Polynomial(m, data)
        if not p.is_zero():
            return p


def random_double_harmonic(
    m: int,
    k: int,
    l: int,
    rng: random.Random,
    terms: int = 4,
    complex_coeff: bool = True,
) -> Polynomial:
    """A random nonzero element of the bidegree-(k, l) double harmonics."""
    while True:
        p = extremal_projection_s(random_bihomogeneous(m, k, l, rng, terms, complex_coeff))
        if not p.is_zero():
            return p
