import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic2v import (
    GeneratorTag,
    NotDoubleHarmonic,
    Polynomial,
    extremal_projection_s,
    extremal_projection_u,
    extremal_projection_x,
    verify_quadratic_relations,
)
from harmonic2v import transvector
from harmonic2v.operators import laplacian_u, laplacian_x, mul_inner_ux, mul_normsq_u, mul_normsq_x
from harmonic2v.sampling import random_bihomogeneous, random_double_harmonic
from harmonic2v.transvector import chain, generator_chain, is_double_harmonic, nested_sum

from conftest import inner_ux, normsq_x, one, poly, random_polynomial
from reference import COMPOSED_GENERATORS, extremal_projection_termwise, generator_chain_composed


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


def test_bihomogeneous_operands_are_not_split(monkeypatch):
    from harmonic2v.fischer import _pi_ij

    m = 5
    p = poly("x1^2*u1^2 + (2-i)*x1*x2*u3^2 - x3^2*u1*u2", m)
    calls = [
        lambda: extremal_projection_x(p),
        lambda: extremal_projection_u(p),
        lambda: extremal_projection_s(p),
        lambda: _pi_ij(p, 1, 0),
        lambda: _pi_ij(p, 0, 1),
    ]
    expected = [call() for call in calls]
    original = Polynomial.bidegree_split
    splits = []

    def counted(self):
        splits.append(self)
        return original(self)

    monkeypatch.setattr(Polynomial, "bidegree_split", counted)
    assert [call() for call in calls] == expected
    assert splits == []
    assert extremal_projection_s(p + poly("x1*u1", m)) == expected[2] + poly("x1*u1", m)
    assert len(splits) == 1


def test_projection_s_on_x1sq_u1sq():
    m = 5
    p = poly("x1^2*u1^2", m)
    ps = extremal_projection_s(p)
    assert laplacian_x(ps).is_zero() and laplacian_u(ps).is_zero()
    # the double-harmonic layer of the (0,0) Fischer cell
    from harmonic2v.fischer import _pi_ij

    assert ps == _pi_ij(p, 0, 0)


# -- nested series ------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([1, 3, 5, 8]),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.booleans()), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_extremal_projections_match_term_by_term(m, parts, seed):
    # parts: (k, l, harmonic); a harmonic part is the reference's own projection
    rng = random.Random(seed)
    p = Polynomial.zero(m)
    for k, l, harmonic in parts:
        part = random_bihomogeneous(m, k, l, rng, terms=3)
        p = p + (extremal_projection_termwise(part, "ux") if harmonic else part)
    assert extremal_projection_x(p) == extremal_projection_termwise(p, "x")
    assert extremal_projection_u(p) == extremal_projection_termwise(p, "u")
    assert extremal_projection_s(p) == extremal_projection_termwise(p, "ux")


@pytest.mark.parametrize("axis", ["x", "u"])
def test_pi_axis_multiplies_by_the_norm_once_per_term(axis, monkeypatch):
    m = 5
    part = poly("x1^6*u1*u2 + (2-i)*x1^2*x2^4*u3^2 - x1*x2*x3*x5^3*u4^2", m)
    if axis == "u":
        part = part.swap_vectors()
    lap = laplacian_x if axis == "x" else laplacian_u
    length, q = 0, part
    while not q.is_zero():
        length, q = length + 1, lap(q)
    assert length == 4
    name = "mul_normsq_x" if axis == "x" else "mul_normsq_u"
    original = getattr(transvector, name)
    calls = []

    def counted(q):
        calls.append(q)
        return original(q)

    monkeypatch.setattr(transvector, name, counted)
    got = transvector._pi_axis(part, axis)
    assert len(calls) <= length - 1
    monkeypatch.undo()
    assert got == extremal_projection_termwise(part, axis)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([mul_inner_ux, mul_normsq_x, laplacian_u, GeneratorTag.C]),
    st.lists(st.sampled_from(["none", "zero", "poly"]), min_size=0, max_size=5),
    st.integers(0, 2**32 - 1),
)
def test_nested_sum_matches_the_direct_sum(step, kinds, seed):
    rng = random.Random(seed)
    m = 5
    coeffs = [
        None if kind == "none" else Polynomial.zero(m) if kind == "zero" else random_polynomial(m, 2, 2, rng)
        for kind in kinds
    ]
    direct = Polynomial.zero(m)
    for n, c in enumerate(coeffs):
        if c is not None:
            direct = direct + chain(c, (step,) * n)
    got = nested_sum(step, coeffs)
    if got is None:
        assert direct.is_zero()
    else:
        assert got == direct


def test_generator_examples():
    m = 5
    assert generator_chain(poly("u1", m), (GeneratorTag.S_X,)) == poly("x1", m)
    assert generator_chain(poly("x1", m), (GeneratorTag.S_U,)) == poly("u1", m)
    assert generator_chain(one(m), (GeneratorTag.C,)) == inner_ux(m)
    c1 = generator_chain(one(6), (GeneratorTag.C,))
    assert generator_chain(c1, (GeneratorTag.A,)) == Polynomial.constant(6, 6)


def test_chain_mixes_atoms_and_generators_rightmost_first():
    m = 5
    # C[1] = <u,x>; then |u|^2 gives |u|^2 <u,x>
    assert chain(one(m), (mul_normsq_u, GeneratorTag.C)) == mul_normsq_u(inner_ux(m))

    def never(p):
        raise AssertionError("step applied after a zero image")

    assert chain(poly("u1", m), (never, laplacian_x)).is_zero()


def test_generator_rejects_non_double_harmonic():
    with pytest.raises(NotDoubleHarmonic):
        generator_chain(poly("x1^2", 5), (GeneratorTag.S_X,))


def test_generator_rejects_small_dimension():
    with pytest.raises(ValueError):
        generator_chain(one(4), (GeneratorTag.C,))


#: Bidegree shift of each generator on bihomogeneous double harmonics.
GENERATOR_SHIFT = {
    GeneratorTag.S_X: (1, -1),
    GeneratorTag.S_U: (-1, 1),
    GeneratorTag.A: (-1, -1),
    GeneratorTag.C: (1, 1),
}


def test_generators_preserve_double_harmonicity_and_shift(rng):
    for m in (5, 6):
        for _ in range(4):
            k, l = rng.randint(1, 3), rng.randint(1, 3)
            h = random_double_harmonic(m, k, l, rng)
            other = random_double_harmonic(m, k + 1, l, rng)
            for tag in GeneratorTag:
                image = generator_chain(h, (tag,))
                assert is_double_harmonic(image)
                if not image.is_zero():
                    dk, dl = GENERATOR_SHIFT[tag]
                    assert image.bidegree() == (k + dk, l + dl)
                # a mixed-bidegree input is mapped part by part
                assert generator_chain(h + other, (tag,)) == image + generator_chain(other, (tag,))


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


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_generators_match_their_atom_compositions(m):
    # Every bidegree up to (4, 4), so u-dominant inputs are covered too.
    rng = random.Random(40 + m)
    for k in range(5):
        for l in range(5):
            h = random_double_harmonic(m, k, l, rng, terms=3)
            for tag, composed in COMPOSED_GENERATORS.items():
                assert chain(h, (tag,)) == composed(h), (tag, k, l)


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_generator_chains_match_the_composed_chain_on_mixed_bidegrees(m):
    rng = random.Random(50 + m)
    tags = list(GeneratorTag)
    for _ in range(3):
        p = sum(
            (random_double_harmonic(m, k, l, rng, terms=2) for k, l in ((1, 3), (2, 2), (3, 1))),
            Polynomial.zero(m),
        )
        assert p.bidegree() is None
        steps = [rng.choice(tags) for _ in range(3)]
        assert chain(p, steps) == generator_chain_composed(p, steps), steps
