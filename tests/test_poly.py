import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmonic2v import DimensionMismatch, ExponentOutOfRange, GaussianRational, Monomial, Polynomial, parse_poly
from harmonic2v.rationals import GAUSSIAN_I

from conftest import poly
from reference import partial, polynomial_text


def test_additive_inverse():
    m = 5
    p = poly("x1", m)
    assert (p + (-p)).is_zero()


def test_disjoint_supports():
    assert poly("x1^2", 5) + poly("u1", 5) == poly("x1^2 + u1", 5)


def test_rational_coefficient_addition():
    half = poly("1/2*x1*u1", 5)
    assert half + half == poly("x1*u1", 5)


def test_product_difference_of_squares():
    m = 5
    assert poly("x1+u1", m) * poly("x1-u1", m) == poly("x1^2 - u1^2", m)


def test_multiplicative_identity(rng):
    m = 5
    p = _random_poly(m, rng)
    assert Polynomial.constant(m, 1) * p == p


def test_i_squared():
    m = 5
    ix1 = poly("i*x1", m)
    assert ix1 * ix1 == poly("-x1^2", m)


def test_partial_derivatives():
    m = 5
    assert partial(poly("x1^3", m), "x", 1) == poly("3*x1^2", m)
    assert partial(poly("x1^2", m), "u", 2).is_zero()
    assert partial(poly("x1*u1", m), "x", 1) == poly("u1", m)


def test_bidegree_split_examples():
    m = 5
    split = (poly("x1^2", m) + poly("x1*u1", m)).bidegree_split()
    assert set(split) == {(2, 0), (1, 1)}
    assert split[(2, 0)] == poly("x1^2", m)
    assert split[(1, 1)] == poly("x1*u1", m)
    assert Polynomial.zero(m).bidegree_split() == {}
    split = poly("x1^2*u1 + 3*x2^2*u1", m).bidegree_split()
    assert set(split) == {(2, 1)}


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        poly("x1", 5) + poly("x1", 6)
    # a zero operand is checked too, on either side of + and -
    for a, b in ((poly("x1", 5), Polynomial.zero(6)), (Polynomial.zero(6), poly("x1", 5))):
        with pytest.raises(DimensionMismatch):
            a + b
        with pytest.raises(DimensionMismatch):
            a - b
    with pytest.raises(DimensionMismatch):
        Polynomial.zero(5) + Polynomial.zero(6)
    with pytest.raises(DimensionMismatch):
        poly("x1", 5) * poly("x1", 6)
    with pytest.raises(DimensionMismatch):
        Polynomial(0)


def test_sum_with_a_non_polynomial_is_a_type_error():
    p = poly("x1", 5)
    for other in (1, "x"):
        with pytest.raises(TypeError, match="unsupported operand"):
            p + other
        with pytest.raises(TypeError, match="unsupported operand"):
            p - other
    with pytest.raises(TypeError, match="unsupported operand"):
        1 + p
    with pytest.raises(DimensionMismatch):
        p + Polynomial.zero(6)


def test_monomial_ordering_and_str():
    a = Monomial((2, 0, 0, 0, 0), (0, 0, 0, 0, 0))
    b = Monomial((1, 0, 0, 0, 0), (1, 0, 0, 0, 0))
    # terms() orders by total degree, then by the exponent word x1..xm, u1..um
    assert [mono for mono, _ in Polynomial(5, {a: 1, b: 1}).terms()] == [b, a]
    assert str(b) == "x1*u1"
    assert str(Monomial((0,) * 5, (0,) * 5)) == "1"


@pytest.mark.parametrize(
    "xexp, uexp",
    [
        ((-1, 0, 0, 0, 0), (0,) * 5),
        ((1.5, 0, 0, 0, 0), (0,) * 5),
        (("2", 0, 0, 0, 0), (0,) * 5),
        ((128, 0, 0, 0, 0), (0,) * 5),
        ((64, 0, 0, 0, 0), (64, 0, 0, 0, 0)),
    ],
)
def test_monomial_rejects_bad_exponents(xexp, uexp):
    with pytest.raises(ExponentOutOfRange):
        Monomial(xexp, uexp)
    assert issubclass(ExponentOutOfRange, ValueError)


def test_coefficient_access():
    p = poly("1/2*x1^2 - i*u3", 5)
    assert p.coefficient(Monomial((2, 0, 0, 0, 0), (0,) * 5)) == GaussianRational(Fraction(1, 2))
    assert p.coefficient(Monomial((0,) * 5, (0, 0, 1, 0, 0))) == -GAUSSIAN_I


def _random_poly(m, rng, terms=4, max_deg=3):
    data = {}
    for _ in range(terms):
        xe = [0] * m
        ue = [0] * m
        for _ in range(rng.randint(0, max_deg)):
            xe[rng.randrange(m)] += 1
        for _ in range(rng.randint(0, max_deg)):
            ue[rng.randrange(m)] += 1
        coeff = GaussianRational(
            Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
        )
        data[Monomial(tuple(xe), tuple(ue))] = coeff
    return Polynomial(m, data)


@st.composite
def small_polys(draw):
    m = 5
    n_terms = draw(st.integers(0, 4))
    data = {}
    for _ in range(n_terms):
        xe = tuple(draw(st.integers(0, 2)) for _ in range(m))
        ue = tuple(draw(st.integers(0, 2)) for _ in range(m))
        re = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        im = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        data[Monomial(xe, ue)] = GaussianRational(re, im)
    return Polynomial(m, data)


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p - q == p + (-q)
    assert (p - q) + q == p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40, deadline=None)
@given(small_polys())
def test_bidegree_split_reassembles(p):
    total = Polynomial.zero(p.m)
    for part in p.bidegree_split().values():
        bid = part.bidegree()
        assert bid is not None
        total = total + part
    assert total == p


@settings(max_examples=30, deadline=None)
@given(small_polys(), st.integers(1, 5), st.integers(1, 5))
def test_partials_commute(p, i, j):
    assert partial(partial(p, "x", i), "u", j) == partial(partial(p, "u", j), "x", i)


def test_conjugate_is_involution(rng):
    p = _random_poly(5, rng)
    assert p.conjugate().conjugate() == p


def test_swap_vectors_involution(rng):
    p = _random_poly(5, rng)
    assert p.swap_vectors().swap_vectors() == p


_FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))


@st.composite
def text_cases(draw):
    """(m, {Monomial: coefficient}) at m = 1..10, with constant terms, unit and
    pure imaginary coefficients drawn often."""
    m = draw(st.integers(1, 10))
    exps = st.one_of(st.just((0,) * m), st.tuples(*[st.integers(0, 3)] * m))
    coeffs = st.one_of(
        st.sampled_from([1, -1, GAUSSIAN_I, -GAUSSIAN_I]),
        st.builds(GaussianRational, st.just(0), _FRACTIONS),
        st.builds(GaussianRational, _FRACTIONS, _FRACTIONS),
    )
    data = {}
    for _ in range(draw(st.integers(0, 5))):
        data[Monomial(draw(exps), draw(exps))] = draw(coeffs)
    return m, data


@settings(max_examples=200, deadline=None)
@given(text_cases())
@example((3, {}))
@example(
    (2, {
        Monomial((0, 0), (0, 0)): GaussianRational(Fraction(-3, 2)),
        Monomial((1, 0), (0, 0)): -1,
        Monomial((0, 1), (0, 0)): GAUSSIAN_I,
        Monomial((0, 0), (1, 0)): -GAUSSIAN_I,
        Monomial((0, 0), (0, 1)): GaussianRational(0, Fraction(-2, 3)),
        Monomial((1, 1), (0, 0)): GaussianRational(1, -1),
        Monomial((2, 0), (0, 0)): GaussianRational(Fraction(-1, 2), Fraction(5, 4)),
    })
)
def test_str_matches_reference_and_parses_back(case):
    m, terms = case
    p = Polynomial(m, terms)
    text = str(p)
    assert text == polynomial_text(p)
    assert parse_poly(text, m) == p
    # a zero coefficient adds no term; exponent 4 is never drawn, so the key is new
    assert Polynomial(m, {**terms, Monomial((4,) * m, (0,) * m): 0}) == p
