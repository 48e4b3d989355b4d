"""Exact evaluation of terminating generalized hypergeometric sums, and machine
verification of the Whipple, product and vanishing-sum identities that
certify the cell-projection weights."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .decomp import _check_kl, ladder_alpha, projection_weight
from .errors import GammaPole, IndexOutOfRange, LowerParameterPole, NonTerminating
from .rationals import rising


def eval_pfq(upper: Sequence, lower: Sequence, z=1) -> Fraction:
    """Exact value of a terminating pFq(upper; lower; z) with rational parameters,
    as a finite sum of factorial ratios.

    The series stops at the smallest N with -N among the upper parameters; a
    lower parameter that reaches zero before that index is a pole.
    """
    upper = tuple(Fraction(a) for a in upper)
    lower = tuple(Fraction(b) for b in lower)
    z = Fraction(z)
    ends = [-a for a in upper if a <= 0 and a.denominator == 1]
    if not ends:
        raise NonTerminating(f"no non-positive integer among upper parameters {upper}")
    n = int(min(ends))
    for b in lower:
        if b <= 0 and b.denominator == 1 and -b < n:
            raise LowerParameterPole(f"lower parameter {b} hits zero before termination at {n}")
    total = Fraction(0)
    term = Fraction(1)
    for j in range(n + 1):
        total += term
        if j == n:
            break
        ratio = z / (j + 1)
        for a in upper:
            ratio *= a + j
        for b in lower:
            ratio /= b + j
        term *= ratio
    return total


def verify_whipple(a, b, z, n, u, v, w) -> bool:
    """Whipple's transformation of a 1-balanced terminating 4F3(1).

    Requires n a non-negative integer; the Gamma-ratio prefactor reduces to a
    quotient of upper factorials since its arguments differ by n.
    """
    a, b, z, u, v, w = map(Fraction, (a, b, z, u, v, w))
    if int(n) != n or n < 0:
        raise ValueError("n must be a non-negative integer")
    n = int(n)
    balance = (u + v + w) - (a + b - z - n)
    if balance != 1:
        raise ValueError(f"series is {balance}-balanced; Whipple needs 1-balanced")
    den_v = rising(v, n)
    den_w = rising(w, n)
    if not den_v or not den_w:
        raise GammaPole("prefactor denominator hits a non-positive integer")
    prefactor = rising(v + z, n) * rising(w + z, n) / (den_v * den_w)
    lhs = eval_pfq((a, b, -z, -n), (u, v, w))
    rhs = prefactor * eval_pfq(
        (u - a, u - b, -z, -n), (u, 1 - v - z - n, 1 - w - z - n)
    )
    return lhs == rhs


def verify_product_transformation(a, b, c, n, z) -> bool:
    """Product/difference identity linking 3F2 and 4F3 values at argument z.

    The right-hand coefficient's numerator vanishes at n = 1, where the
    right-hand 4F3 does not terminate, and at z = 1; a zero numerator
    short-circuits before the division, so neither that series nor a zero
    denominator is evaluated.
    """
    a, b, c, z = map(Fraction, (a, b, c, z))
    if int(n) != n or n < 1:
        raise ValueError("n must be a positive integer")
    n = int(n)
    first = eval_pfq((-1, a + c, b - c), (a + n, b + n), z)
    second = eval_pfq((-n + 1, a + b + n + 1, a + c, b - c), (a + 1, b + 1, a + b + 1), z)
    third = eval_pfq((-n, a + b + n, a + c, b - c), (a + 1, b + 1, a + b + 1), z)
    lhs = first * second - third
    coeff = z * (z - 1) * (1 - n) * (a + b + n + 1) * (a + c) * (b - c)
    if not coeff:
        return lhs == 0
    coeff /= (a + 1) * (b + 1) * (a + n) * (b + n)
    return lhs == coeff * eval_pfq(
        (-n + 2, a + b + n + 2, a + c + 1, b - c + 1), (a + 2, b + 2, a + b + 1), z
    )


def verify_unit_argument_product(a, b, c, n) -> bool:
    """The z = 1 specialization, where the right-hand side's factor z - 1
    vanishes: the 4F3 equals the two-term 3F2 factor times the shifted 4F3."""
    return verify_product_transformation(a, b, c, n, 1)


# -- the vanishing sum certifying the master projection -----------------------------


def g_sum(k: int, l: int, i: int, j: int, m: int) -> Fraction:
    """Total weight the cell projection assigns to the ladder cell (i, j).

    Summand (a, b): cell-chain constant of A^a S_x^b at the cell's harmonic
    label, times the projection weight at the ambient bidegree, times the
    re-embedding factor (K-i-1)^(b) / (K-a-1)^(b) from commuting S_u^b past
    C^{i-a}.  Equals 1 at (i, j) = (0, 0) and 0 on every other cell.
    """
    _check_kl(k, l)
    if i < 0 or j < 0 or i + j > l:
        raise IndexOutOfRange(f"cell ({i},{j}) outside the ladder of bidegree ({k},{l})")
    tk, tl = k - i + j, l - i - j
    big_k = Fraction(k) + Fraction(m, 2)
    total = Fraction(0)
    for a in range(i + 1):
        for b in range(j + 1):
            alpha = ladder_alpha(i, j, a, b, tk, tl, m)
            if not alpha:
                continue
            beta = projection_weight(a, b, k, l, m)
            rho = rising(big_k - i - 1, b) / rising(big_k - a - 1, b)
            total += alpha * beta * rho
    return total


def verify_g_vanishes(k: int, l: int, i: int, j: int, m: int) -> bool:
    """True iff the projection kills the (i, j) cell: the double sum is zero."""
    if i + j < 1:
        raise IndexOutOfRange("the vanishing claim concerns cells with i + j >= 1")
    return g_sum(k, l, i, j, m) == 0
