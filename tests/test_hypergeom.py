import random
from fractions import Fraction

import pytest

from harmonic2v import (
    GammaPole,
    IndexOutOfRange,
    LowerParameterPole,
    NonTerminating,
    eval_pfq,
    g_sum,
    verify_unit_argument_product,
    verify_g_vanishes,
    verify_product_transformation,
    verify_whipple,
)

from reference import unit_argument_product_two_term


def contiguous_holds(a, b, c, d, e, f, g) -> bool:
    """Three-term relation shifting one lower parameter of a terminating 4F3(1).

    A vanishing upper-parameter product zeroes the shifted series' coefficient,
    so that (possibly non-terminating) series is never evaluated.
    """
    a, b, c, d, e, f, g = map(Fraction, (a, b, c, d, e, f, g))
    lhs = eval_pfq((a, b, c, d), (e - 1, f, g))
    rhs = eval_pfq((a, b, c, d), (e, f, g))
    coeff = (a * b * c * d) / ((e - 1) * e * f * g)
    if coeff:
        rhs += coeff * eval_pfq((a + 1, b + 1, c + 1, d + 1), (e + 1, f + 1, g + 1))
    return lhs == rhs


def test_two_term_series():
    for b, c in [(Fraction(3, 2), Fraction(7, 3)), (Fraction(-5, 2), Fraction(1, 3))]:
        assert eval_pfq((-1, b), (c,)) == 1 - b / c


def test_zero_upper_parameter_gives_one():
    assert eval_pfq((0, Fraction(9, 2), -3), (Fraction(1, 7), 2)) == 1


def test_three_f_two_closed_form():
    a, b, c, n = Fraction(1, 2), Fraction(5, 3), Fraction(1, 4), 2
    got = eval_pfq((-1, a + c, b - c), (a + n, b + n))
    assert got == 1 - (a + c) * (b - c) / ((a + n) * (b + n))


def test_parameter_permutation_invariance():
    upper = (Fraction(-3), Fraction(1, 2), Fraction(7, 5))
    lower = (Fraction(4, 3), Fraction(9, 2))
    base = eval_pfq(upper, lower, Fraction(2, 3))
    assert eval_pfq(upper[::-1], lower, Fraction(2, 3)) == base
    assert eval_pfq(upper, lower[::-1], Fraction(2, 3)) == base


def test_termination_uses_smallest_upper():
    # -1 terminates first: 1 + (-1)(-4)/(1/2) = 9
    assert eval_pfq((-1, -4), (Fraction(1, 2),), 1) == 9


def test_non_terminating_raises():
    with pytest.raises(NonTerminating):
        eval_pfq((Fraction(1, 2), 3), (2,))


def test_lower_pole_raises():
    with pytest.raises(LowerParameterPole):
        eval_pfq((-3, 1), (-1,))
    # a deep enough non-positive lower parameter never divides by zero:
    # sum_{j<=2} of (-2)^(j) (1)^(j) / ((-5)^(j) j!) = 1 + 2/5 + 1/10
    assert eval_pfq((-2, 1), (-5,)) == Fraction(3, 2)


def test_balance():
    # Whipple's precondition sums lower minus upper parameters:
    # (4 + 3/2 + 0) - (1 + 2 - 3 - 0) = 11/2
    with pytest.raises(ValueError, match="11/2-balanced"):
        verify_whipple(1, 2, 3, 0, 4, Fraction(3, 2), 0)


@pytest.mark.parametrize("d", [-3, -1])
def test_contiguous_relation(d):
    rng = random.Random(d)
    for _ in range(5):
        a = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        b = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
        e = Fraction(rng.randint(2, 9), rng.randint(1, 2))
        f = Fraction(rng.randint(1, 9), rng.randint(1, 2))
        g = Fraction(rng.randint(1, 9), rng.randint(1, 2))
        assert contiguous_holds(a, b, c, d, e, f, g)


def test_contiguous_with_zero_upper():
    assert contiguous_holds(0, 1, 2, 3, Fraction(5, 2), 1, 1)


def test_whipple_trivial_n0():
    a, b, z = Fraction(1, 2), Fraction(1, 3), 2
    u, v = Fraction(3, 2), Fraction(7, 2)
    w = a + b - z - 0 + 1 - u - v
    assert verify_whipple(a, b, z, 0, u, v, w)


def test_whipple_small_orders():
    rng = random.Random(17)
    done = 0
    while done < 10:
        a = Fraction(rng.randint(1, 6), 2)
        b = Fraction(rng.randint(1, 6), 2)
        z = rng.randint(0, 3)
        n = rng.randint(1, 2)
        u = Fraction(rng.randint(3, 9), 2)
        v = Fraction(rng.randint(3, 9), 2)
        w = a + b - z - n + 1 - u - v
        try:
            assert verify_whipple(a, b, z, n, u, v, w)
            done += 1
        except GammaPole:
            continue


def test_whipple_half_integer_shapes():
    # parameter shapes of the vanishing-sum proof at m = 5: K, L half-integers
    K, L = Fraction(9, 2), Fraction(7, 2)
    i, j = 2, 1
    a, b = -K - j + 1, -K - i - 1
    z, n = i, j
    u, v, w = 1 - i - j, -L + 2, L - i - j - 2
    balance = (u + v + w) - (a + b - z - n)
    if balance == 1:
        assert verify_whipple(a, b, z, n, u, v, w)


def test_whipple_rejects_unbalanced():
    with pytest.raises(ValueError):
        verify_whipple(1, 1, 1, 1, 1, 1, 1)


def test_whipple_gamma_pole():
    a, b, z, n = Fraction(1, 2), Fraction(1, 2), 1, 2
    u, v = Fraction(5, 2), Fraction(-1)  # (v)^(n) hits zero
    w = a + b - z - n + 1 - u - v
    with pytest.raises(GammaPole):
        verify_whipple(a, b, z, n, u, v, w)


def test_product_transformation_small_n():
    rng = random.Random(23)
    for n in (1, 2, 3):
        for _ in range(4):
            a = Fraction(rng.randint(1, 6), rng.choice((1, 2)))
            b = Fraction(rng.randint(1, 6), rng.choice((1, 2)))
            c = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
            z = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            assert verify_product_transformation(a, b, c, n, z)


def test_unit_argument_product_consistent_at_one():
    rng = random.Random(29)
    for n in (1, 2, 3):
        for _ in range(4):
            a = Fraction(rng.randint(1, 6), rng.choice((1, 2)))
            b = Fraction(rng.randint(1, 6), rng.choice((1, 2)))
            c = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
            assert verify_product_transformation(a, b, c, n, 1)
            assert verify_unit_argument_product(a, b, c, n)


def test_unit_argument_product_matches_two_term_form():
    # every (a, b, c, n) that criterion 8 and the appendix suite can draw
    ab = sorted({Fraction(k, d) for k in range(1, 7) for d in (1, 2)})
    cs = sorted({Fraction(k, d) for k in range(-3, 4) for d in (1, 2)})
    for a in ab:
        for b in ab:
            for c in cs:
                for n in (1, 2, 3):
                    assert verify_unit_argument_product(a, b, c, n)
                    assert unit_argument_product_two_term(a, b, c, n), (a, b, c, n)


def test_product_transformation_zero_numerator_skips_a_zero_denominator():
    # b + 1 = 0 zeroes the right-hand coefficient's denominator, and z = 1 its
    # numerator; b - c = 0 ends every series at its first term
    assert unit_argument_product_two_term(-4, -1, -1, 2)
    assert verify_product_transformation(-4, -1, -1, 2, 1)
    assert verify_unit_argument_product(-4, -1, -1, 2)


def test_unit_argument_product_argument_check():
    for n in (0, Fraction(3, 2)):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            verify_unit_argument_product(1, 1, 0, n)


def test_g_sum_diagonal_is_one():
    assert g_sum(2, 1, 0, 0, 5) == 1
    assert g_sum(4, 3, 0, 0, 7) == 1


def test_g_vanishes_examples():
    assert verify_g_vanishes(2, 1, 1, 0, 5)
    assert verify_g_vanishes(2, 2, 1, 1, 5)


def test_g_vanishes_grid():
    for m in (5, 6, 7):
        for k in range(5):
            for l in range(min(k, 3) + 1):
                for i in range(l + 1):
                    for j in range(l - i + 1):
                        if 1 <= i + j <= 3:
                            assert verify_g_vanishes(k, l, i, j, m), (k, l, i, j, m)


def test_g_sum_range_errors():
    with pytest.raises(IndexOutOfRange):
        verify_g_vanishes(2, 1, 0, 0, 5)
    with pytest.raises(IndexOutOfRange):
        g_sum(1, 2, 0, 0, 5)
    with pytest.raises(IndexOutOfRange):
        g_sum(3, 1, 1, 1, 5)
