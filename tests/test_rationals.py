from fractions import Fraction
from math import prod

import pytest

from harmonic2v import GaussianRational, falling, rising
from harmonic2v.rationals import GAUSSIAN_I


def test_lowest_terms_and_positive_denominator():
    z = GaussianRational(Fraction(2, 4), Fraction(3, -6))
    assert z.re == Fraction(1, 2) and z.re.denominator == 2
    assert z.im == Fraction(-1, 2) and z.im.denominator == 2


def test_conjugation_is_involution():
    z = GaussianRational(Fraction(3, 7), Fraction(-5, 2))
    assert z.conjugate().conjugate() == z
    assert z.conjugate().im == Fraction(5, 2)


def test_arithmetic():
    i = GAUSSIAN_I
    assert i * i == GaussianRational(-1)
    assert (GaussianRational(1, 2) * GaussianRational(1, -2)) == 5
    z = GaussianRational(Fraction(1, 2), Fraction(3))
    assert z / z == 1
    assert z + 1 - 1 == z
    assert -(-z) == z


def test_comparison_with_plain_rationals():
    assert GaussianRational(Fraction(3)) == 3
    assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
    assert GaussianRational(0, 1) != 0
    assert hash(GaussianRational(Fraction(3))) == hash(3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational()


@pytest.mark.parametrize(
    "value, expected",
    [
        (GaussianRational(), "0"),
        (GaussianRational(Fraction(-3, 2)), "-3/2"),
        (GAUSSIAN_I, "i"),
        (GaussianRational(0, -1), "-i"),
        (GaussianRational(0, Fraction(3, 2)), "3/2i"),
        (GaussianRational(Fraction(1, 2), Fraction(-2)), "1/2-2i"),
        (GaussianRational(1, 1), "1+i"),
    ],
)
def test_canonical_strings(value, expected):
    assert str(value) == expected


def test_pochhammer_products():
    assert rising(Fraction(5, 2), 3) == Fraction(5, 2) * Fraction(7, 2) * Fraction(9, 2)
    assert rising(4, 0) == 1
    assert falling(4, 2) == 12
    assert falling(Fraction(1, 2), 1) == Fraction(1, 2)


def test_falling_is_the_explicit_product():
    for a in (-3, 0, 1, 2, 5, 9, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 2)):
        for n in range(7):
            assert falling(a, n) == prod((Fraction(a) - t for t in range(n)), start=Fraction(1)), (a, n)
    with pytest.raises(ValueError, match="falling factorial needs n >= 0"):
        falling(3, -1)
