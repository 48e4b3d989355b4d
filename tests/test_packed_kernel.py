"""Packed monomial keys against a tuple-keyed reference, and their limits.

The reference reads polynomials only through ``terms()`` and works on
exponent tuples with ``GaussianRational`` coefficients, the representation
the packed keys replaced; it shares no code with the key arithmetic.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic2v import DimensionMismatch, ExponentOutOfRange, GaussianRational, Monomial, Polynomial, parse_poly
from harmonic2v import operators
from harmonic2v.operators import linear_combination
from harmonic2v.parser import MAX_DEGREE
from harmonic2v.poly import MAX_TERM_DEGREE
from harmonic2v.transvector import _per_part

from reference import partial


def ref_terms(p):
    return {mono.xexp + mono.uexp: c for mono, c in p.terms()}


def ref_apply(terms, rule):
    """Sum of factor * coefficient at exponent tuple ne, over (ne, factor) in rule(e)."""
    out = {}
    for e, c in terms.items():
        for ne, f in rule(e):
            out[ne] = out.get(ne, GaussianRational()) + c * f
    return {e: c for e, c in out.items() if c}


def bump(e, changes):
    e = list(e)
    for pos, d in changes.items():
        e[pos] += d
    return tuple(e)


def ref_rules(m):
    xs, us = range(m), range(m, 2 * m)
    pairs = list(zip(xs, us))
    return {
        "laplacian_x": lambda e: [(bump(e, {i: -2}), e[i] * (e[i] - 1)) for i in xs if e[i] >= 2],
        "laplacian_u": lambda e: [(bump(e, {i: -2}), e[i] * (e[i] - 1)) for i in us if e[i] >= 2],
        "mul_normsq_x": lambda e: [(bump(e, {i: 2}), 1) for i in xs],
        "mul_normsq_u": lambda e: [(bump(e, {i: 2}), 1) for i in us],
        "mul_inner_ux": lambda e: [(bump(e, {i: 1, j: 1}), 1) for i, j in pairs],
        "cross_dd": lambda e: [
            (bump(e, {i: -1, j: -1}), e[i] * e[j]) for i, j in pairs if e[i] and e[j]
        ],
        "skew_ux": lambda e: [(bump(e, {i: -1, j: 1}), e[i]) for i, j in pairs if e[i]],
        "skew_xu": lambda e: [(bump(e, {i: 1, j: -1}), e[j]) for i, j in pairs if e[j]],
    }


def ref_degrees(e, m):
    return sum(e[:m]), sum(e[m:])


@st.composite
def polys(draw, m=None):
    m = m if m is not None else draw(st.sampled_from([1, 2, 5, 8]))
    data = {}
    for _ in range(draw(st.integers(0, 6))):
        xe = tuple(draw(st.integers(0, 3)) for _ in range(m))
        ue = tuple(draw(st.integers(0, 3)) for _ in range(m))
        re = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        im = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        data[Monomial(xe, ue)] = GaussianRational(re, im)
    return Polynomial(m, data)


@settings(max_examples=60, deadline=None)
@given(polys())
def test_atoms_match_reference(p):
    terms = ref_terms(p)
    for name, rule in ref_rules(p.m).items():
        assert ref_terms(getattr(operators, name)(p)) == ref_apply(terms, rule), name


@settings(max_examples=60, deadline=None)
@given(polys(), st.data())
def test_partial_and_swap_match_reference(p, data):
    m = p.m
    terms = ref_terms(p)
    axis = data.draw(st.sampled_from("xu"))
    index = data.draw(st.integers(1, m))
    pos = (0 if axis == "x" else m) + index - 1
    expect = ref_apply(terms, lambda e: [(bump(e, {pos: -1}), e[pos])] if e[pos] else [])
    assert ref_terms(partial(p, axis, index)) == expect
    assert ref_terms(p.swap_vectors()) == {e[m:] + e[:m]: c for e, c in terms.items()}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 5, 8]).flatmap(lambda m: st.tuples(polys(m), polys(m))))
def test_product_matches_reference(pq):
    p, q = pq
    expect = {}
    for e1, c1 in ref_terms(p).items():
        for e2, c2 in ref_terms(q).items():
            e = tuple(a + b for a, b in zip(e1, e2))
            expect[e] = expect.get(e, GaussianRational()) + c1 * c2
    assert ref_terms(p * q) == {e: c for e, c in expect.items() if c}


@settings(max_examples=60, deadline=None)
@given(polys())
def test_degrees_split_and_order_match_reference(p):
    m = p.m
    terms = ref_terms(p)
    assert list(terms) == sorted(terms, key=lambda e: (sum(e), e))
    degrees = {ref_degrees(e, m) for e in terms}
    assert p.bidegree() == (degrees.pop() if len(degrees) == 1 else None)
    assert p.total_degree() == max((sum(e) for e in terms), default=0)
    split = p.bidegree_split()
    assert list(split) == sorted({ref_degrees(e, m) for e in terms})
    for d, part in split.items():
        assert ref_terms(part) == {e: c for e, c in terms.items() if ref_degrees(e, m) == d}


# -- the accumulation kernel -----------------------------------------------------

QUADRICS = (None, "normsq_x", "normsq_u", "inner_ux")


def quadric(m, name):
    """|x|^2, |u|^2 or <u, x> built from its monomials, without the kernel."""
    zero = (0,) * m
    unit = [tuple(int(i == j) for i in range(m)) for j in range(m)]
    monos = {
        "normsq_x": [Monomial(tuple(2 * e for e in v), zero) for v in unit],
        "normsq_u": [Monomial(zero, tuple(2 * e for e in v)) for v in unit],
        "inner_ux": [Monomial(v, v) for v in unit],
    }[name]
    return Polynomial(m, {mono: 1 for mono in monos})


def iterated_sum(m, parts):
    """sum_t c_t Q_t p_t by ``*`` and ``scaled``, added per monomial through
    ``terms()``: ``+`` is the kernel itself, so it is not used."""
    total = {}
    for c, name, p in parts:
        for mono, coeff in (p if name is None else quadric(m, name) * p).scaled(c).terms():
            total[mono] = total.get(mono, GaussianRational()) + coeff
    return Polynomial(m, total)


def same_representation(got, want):
    return got.m == want.m and (got._den, got._terms) == (want._den, want._terms)


@st.composite
def combinations(draw):
    m = draw(st.sampled_from([1, 2, 5, 8]))
    coeff = st.one_of(
        st.integers(-6, 6), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))
    )
    parts = draw(st.lists(st.tuples(coeff, st.sampled_from(QUADRICS), polys(m)), max_size=5))
    return m, parts


@settings(max_examples=80, deadline=None)
@given(combinations())
def test_linear_combination_matches_iterated_sums(case):
    m, parts = case
    want = iterated_sum(m, parts)
    assert same_representation(linear_combination(m, parts), want)
    assert same_representation(linear_combination(m, (part for part in parts)), want)


def test_linear_combination_rescales_to_each_new_denominator():
    m = 2
    x1, u1 = Polynomial.variable(m, "x", 1), Polynomial.variable(m, "u", 1)
    cx = Polynomial(m, {Monomial((1, 0), (0, 0)): GaussianRational(Fraction(1, 5), Fraction(2, 7))})
    parts = [
        (Fraction(1, 3), None, x1),
        (Fraction(1, 4), None, u1),  # 4 does not divide 3: the terms so far are rescaled
        (Fraction(5, 6), "inner_ux", x1),  # 6 divides 12
        (Fraction(-1, 3), "normsq_u", cx),  # complex numerators over 35
        (Fraction(-1, 4), None, u1),
    ]
    got = linear_combination(m, parts)
    assert same_representation(got, iterated_sum(m, parts))
    assert got._den == 3 * 35 * 2
    text = "5/6*x1^2*u1 + 5/6*x1*x2*u2 + (-1/15-2/21*i)*x1*u1^2 + (-1/15-2/21*i)*x1*u2^2 + 1/3*x1"
    assert same_representation(got, parse_poly(text, m))


def test_linear_combination_cancels_to_the_zero_polynomial():
    m = 5
    coeff = GaussianRational(Fraction(3, 4), Fraction(-1, 6))
    p = Polynomial(m, {Monomial((1, 0, 2, 0, 0), (0, 1, 0, 0, 0)): coeff})
    for name in QUADRICS:
        product = p if name is None else quadric(m, name) * p
        got = linear_combination(m, ((Fraction(2, 3), name, p), (Fraction(-2, 3), None, product)))
        assert got._terms == {} and got._den == 1


def test_linear_combination_of_nothing_is_zero():
    m = 5
    for parts in ((), iter(()), [(7, "normsq_x", Polynomial.zero(m))]):
        got = linear_combination(m, parts)
        assert got._terms == {} and got._den == 1


def test_linear_combination_rejects_another_dimension():
    with pytest.raises(DimensionMismatch):
        linear_combination(5, [(1, None, Polynomial.variable(6, "x", 1))])


# -- sums through the kernel -----------------------------------------------------


def ref_sum(*signed):
    """sum of sign * p over (sign, p), one GaussianRational per monomial."""
    out = {}
    for sign, p in signed:
        for e, c in ref_terms(p).items():
            out[e] = out.get(e, GaussianRational()) + c * sign
    return {e: c for e, c in out.items() if c}


def is_zero_representation(p):
    return p._terms == {} and p._den == 1


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 2, 5, 8]).flatmap(lambda m: st.tuples(polys(m), polys(m))))
def test_sum_difference_and_negation_match_reference(pq):
    # mixed bidegrees, and numerators over denominators 1..4 in each part
    p, q = pq
    assert ref_terms(p + q) == ref_sum((1, p), (1, q))
    assert ref_terms(p - q) == ref_sum((1, p), (-1, q))
    assert ref_terms(q - p) == ref_sum((1, q), (-1, p))
    assert ref_terms(-p) == ref_sum((-1, p))
    for got in (p + q, p - q):  # p's keys, then q's new keys, without the zeros
        assert list(got._terms) == [k for k in dict.fromkeys([*p._terms, *q._terms]) if k in got._terms]
    for zero in (p - p, p + (-p), -p + p, (p + q) - q - p):
        assert is_zero_representation(zero)


@settings(max_examples=60, deadline=None)
@given(polys(), st.sampled_from(sorted(ref_rules(1))))
def test_per_part_sum_matches_reference(p, name):
    # an atom is linear, so its sum over the bidegree parts is its image of p
    got = _per_part(p, getattr(operators, name))
    assert ref_terms(got) == ref_apply(ref_terms(p), ref_rules(p.m)[name])


def test_per_part_sum_cancels_to_the_zero_polynomial():
    m = 5
    p = Polynomial(m, {Monomial((1, 0, 0, 0, 0), (0,) * 5): Fraction(1, 2), Monomial((0,) * 5, (0, 0, 3, 0, 0)): 1})
    third = {(1, 0): Fraction(1, 3), (0, 3): Fraction(-1, 3)}
    assert is_zero_representation(_per_part(p, lambda q: Polynomial.constant(m, third[q.bidegree()])))


def test_sum_keeps_the_first_operands_keys_then_the_seconds_new_keys():
    # stiefel._eval_on_frames adds a polynomial's terms in this order, so the
    # last bits of a Monte Carlo estimate depend on it
    m = 2
    x1, x2, u1, u2, x1u1 = (
        Monomial(xe, ue)
        for xe, ue in (((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (1, 0)))
    )
    p = Polynomial(m, {x2: 1, x1: Fraction(1, 2), u1: GaussianRational(0, 1)})
    q = Polynomial(m, {u2: 1, x1: Fraction(-1, 2), x2: Fraction(1, 3), x1u1: 2})
    keys = lambda *monos: [mono.key() for mono in monos]
    assert list(p._terms) == keys(x2, x1, u1)
    assert list((p + q)._terms) == keys(x2, u1, u2, x1u1)
    assert list((q + p)._terms) == keys(u2, x2, x1u1, u1)
    assert list((p - q)._terms) == keys(x2, x1, u1, u2, x1u1)
    assert list((-q)._terms) == keys(u2, x1, x2, x1u1)


def test_parsed_long_sum_matches_per_term_reference():
    m = 3
    rnd = random.Random(27)
    pieces, want = [], {}
    for _ in range(3000):
        e = tuple(rnd.randint(0, 2) for _ in range(2 * m))
        c = Fraction(rnd.randint(1, 9), rnd.randint(1, 6)) * rnd.choice((1, -1))
        mono = "*".join(f"{v}{i % m + 1}^{k}" for i, (v, k) in enumerate(zip("xxxuuu", e)))
        pieces.append(f"{'-' if c < 0 else '+'} {abs(c)}*{mono}")
        want[e] = want.get(e, GaussianRational()) + c
    pieces += ["+ 5/7*x1*u2", "- 5/7*x1*u2"]  # a sum that cancels exactly
    got = parse_poly(" ".join(pieces), m)
    assert len(want) < 3000  # monomials repeat, so terms are combined
    assert ref_terms(got) == {e: c for e, c in want.items() if c}


# -- limits --------------------------------------------------------------------


def mono(m, xexp=(), uexp=()):
    """The monomial with the given leading x- and u-exponents, zero-padded to m."""
    xexp, uexp = (tuple(e) + (0,) * (m - len(e)) for e in (xexp, uexp))
    return Polynomial(m, {Monomial(xexp, uexp): 1})


def test_parser_limit_lies_below_the_term_degree_limit():
    assert MAX_DEGREE < MAX_TERM_DEGREE


@pytest.mark.parametrize("m", [1, 8])
def test_degrees_are_exact_at_the_limit(m):
    spread = [MAX_TERM_DEGREE // m + (i < MAX_TERM_DEGREE % m) for i in range(m)]
    top_x = mono(m, spread)
    assert top_x.total_degree() == MAX_TERM_DEGREE
    assert top_x.bidegree() == (MAX_TERM_DEGREE, 0)
    assert top_x.swap_vectors().bidegree() == (0, MAX_TERM_DEGREE)
    mixed = mono(m, [64], [MAX_TERM_DEGREE - 64])
    assert mixed.bidegree() == (64, MAX_TERM_DEGREE - 64)
    assert set((top_x + mixed).bidegree_split()) == {(64, 63), (MAX_TERM_DEGREE, 0)}
    assert ref_terms(top_x) == {tuple(spread) + (0,) * m: 1}


def test_product_at_the_limit_and_one_past():
    m = 5
    assert mono(m, [100]) * mono(m, [27]) == mono(m, [MAX_TERM_DEGREE])
    with pytest.raises(ExponentOutOfRange):
        mono(m, [100]) * mono(m, [], [28])


@pytest.mark.parametrize("name", ["mul_normsq_x", "mul_normsq_u", "mul_inner_ux"])
def test_multipliers_at_the_limit_and_one_past(name):
    m = 5
    atom = getattr(operators, name)
    assert atom(mono(m, [MAX_TERM_DEGREE - 2])).total_degree() == MAX_TERM_DEGREE
    assert atom(mono(m, [], [MAX_TERM_DEGREE - 2])).total_degree() == MAX_TERM_DEGREE
    with pytest.raises(ExponentOutOfRange):
        atom(mono(m, [1], [MAX_TERM_DEGREE - 2]) + mono(m, [1]))


@pytest.mark.parametrize("name", ["skew_ux", "skew_xu"])
def test_skews_keep_the_degree_at_the_limit(name):
    m = 5
    # x1^127 -> x1^126 u1 and u1^127 -> x1 u1^126: no field reaches the top bit.
    p = mono(m, [MAX_TERM_DEGREE]) + mono(m, [], [MAX_TERM_DEGREE])
    assert getattr(operators, name)(p).total_degree() == MAX_TERM_DEGREE


def test_construction_at_the_limit_and_one_past():
    m = 2
    assert mono(m, [MAX_TERM_DEGREE - 1], [1]).total_degree() == MAX_TERM_DEGREE
    with pytest.raises(ExponentOutOfRange):
        Monomial((MAX_TERM_DEGREE, 0), (0, 1))
    with pytest.raises(ExponentOutOfRange):
        Polynomial(m, {Monomial((MAX_TERM_DEGREE + 1, 0), (0, 0)): 1})


@pytest.mark.parametrize("name", ["normsq_x", "normsq_u", "inner_ux"])
def test_linear_combination_checks_each_quadric_part_at_the_limit(name):
    m = 5
    low = mono(m, [1])
    top = mono(m, [MAX_TERM_DEGREE - 3], [2])  # degree 126: times a quadric is 128
    below = mono(m, [MAX_TERM_DEGREE - 4], [2])  # degree 125: times a quadric is 127
    assert linear_combination(m, [(1, name, below)]).total_degree() == MAX_TERM_DEGREE
    assert linear_combination(m, [(1, None, top), (1, name, low)]).total_degree() == 126
    with pytest.raises(ExponentOutOfRange):
        linear_combination(m, [(1, name, low), (Fraction(1, 3), name, top)])
