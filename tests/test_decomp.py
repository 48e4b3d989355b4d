import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic2v import (
    DecompositionResult,
    GeneratorTag,
    IndexOutOfRange,
    NotDoubleHarmonic,
    Polynomial,
    c_power_one,
    decompose_double_harmonic,
    decompose_full,
    fischer_inner_product,
    highest_weight_vector,
    ladder_alpha,
    ladder_c,
    ladder_phi,
    ladder_psi,
    master_projection,
    project_component,
    projection_weight,
    verify_component_orthogonality,
)
from harmonic2v import transvector
from harmonic2v.decomp import (
    LadderIndex,
    SimplicialComponent,
    _commutation_scalar,
    _ladder,
    _master_projection_dominant,
    _orient,
    is_simplicial,
)
from harmonic2v.operators import cross_dd, laplacian_u, laplacian_x, skew_xu
from harmonic2v.poly import Monomial
from harmonic2v.rationals import GAUSSIAN_I
from harmonic2v.sampling import random_bihomogeneous, random_double_harmonic
from harmonic2v.transvector import chain, generator_chain, grid_power

from conftest import one, poly
from reference import peel_double_harmonic


def _cell(hw, i, j):
    return generator_chain(hw, (GeneratorTag.C,) * i + (GeneratorTag.S_U,) * j)


# -- highest weight vectors ---------------------------------------------------


def test_hwv_small_cases():
    m = 5
    assert highest_weight_vector(0, 0, m) == one(m)
    assert highest_weight_vector(1, 0, m) == poly("x1", m) - poly("x2", m).scaled(GAUSSIAN_I)
    z1 = poly("x1 - i*x2", m)
    z2 = poly("x3 - i*x4", m)
    w1 = poly("u1 - i*u2", m)
    w2 = poly("u3 - i*u4", m)
    assert highest_weight_vector(1, 1, m) == z1 * w2 - z2 * w1


def test_hwv_is_simplicial():
    for m in (5, 6):
        for k in range(4):
            for l in range(k + 1):
                hw = highest_weight_vector(k, l, m)
                assert hw.bidegree() == (k, l)
                assert laplacian_x(hw).is_zero() and laplacian_u(hw).is_zero()
                assert cross_dd(hw).is_zero() and skew_xu(hw).is_zero()


def test_is_simplicial_rejects_each_failing_condition():
    m = 5
    assert not is_simplicial(poly("x1^2", m))  # not harmonic in x
    u1 = poly("u1", m)
    # <x, d_u> u1 = x1, but <u, d_x> u1 = 0: simplicial only when mirrored
    assert not is_simplicial(u1) and is_simplicial(u1, mirrored=True)
    # <u, x> is double harmonic, but <d_u, d_x> <u, x> = m
    assert not any(is_simplicial(c_power_one(1, m), mirrored) for mirrored in (False, True))


def test_hwv_rejects_bad_weights():
    with pytest.raises(IndexOutOfRange):
        highest_weight_vector(1, 2, 5)


def test_hwv_skew_power_swap_identity():
    # S_u^{k-l} maps the canonical vector to (-1)^l (k-l)! times its x<->u swap
    for m in (5, 6):
        for (k, l) in [(1, 0), (2, 0), (2, 1), (3, 1), (3, 2)]:
            hw = highest_weight_vector(k, l, m)
            lhs = generator_chain(hw, (GeneratorTag.S_U,) * (k - l))
            assert lhs == hw.swap_vectors().scaled(factorial(k - l) * (-1) ** l)
            assert generator_chain(hw, (GeneratorTag.S_U,) * (k - l + 1)).is_zero()


# -- ladder constants ----------------------------------------------------------


def test_ladder_c_examples():
    assert ladder_c(1, 2, 1, 6) == Fraction(35, 4)
    assert ladder_c(0, 3, 1, 5) == 0


def test_ladder_phi_at_i_zero_j_one():
    for m in (5, 6):
        for (k, l) in [(2, 0), (3, 1), (4, 2)]:
            assert ladder_phi(0, 1, k, l, m) == k - l


def test_ladder_alpha_range_errors():
    with pytest.raises(IndexOutOfRange):
        ladder_alpha(1, 1, 2, 0, 3, 2, 5)
    with pytest.raises(IndexOutOfRange):
        ladder_alpha(1, 1, 0, 2, 3, 2, 5)
    with pytest.raises(IndexOutOfRange):
        ladder_phi(0, 1, 1, 2, 5)
    # the unit steps check their indices on the zero branch too
    for args in [(-1, 0, 2, 1, 5), (0, -1, 2, 1, 5), (0, 0, 1, 2, 5)]:
        for constant in (ladder_phi, ladder_psi):
            with pytest.raises(IndexOutOfRange):
                constant(*args)
    for args in [(-1, 2, 1, 5), (0, 1, 2, 5)]:
        with pytest.raises(IndexOutOfRange):
            ladder_c(*args)


# -- master projection ----------------------------------------------------------


def test_master_projection_fixes_simplicial():
    for m in (5, 6):
        for (k, l) in [(0, 0), (2, 1), (3, 2), (2, 2)]:
            hw = highest_weight_vector(k, l, m)
            assert master_projection(hw) == hw


def test_master_projection_kills_creation_cell():
    m = 5
    c1 = generator_chain(one(m), (GeneratorTag.C,))
    assert master_projection(c1).is_zero()


def test_master_projection_kills_skew_cell():
    m = 5
    cell = generator_chain(highest_weight_vector(2, 0, m), (GeneratorTag.S_U,))
    assert master_projection(cell).is_zero()


def test_master_projection_kills_all_small_cells():
    for m in (5, 6):
        for (k, l) in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3)]:
            for i in range(l + 1):
                for j in range(l - i + 1):
                    if not 1 <= i + j <= 3:
                        continue
                    hw = highest_weight_vector(k - i + j, l - i - j, m)
                    cell = _cell(hw, i, j)
                    assert not cell.is_zero()
                    assert master_projection(cell).is_zero()


def test_master_projection_weight_at_origin_cell():
    for m in (5, 6):
        for (k, l) in [(1, 1), (3, 2)]:
            assert projection_weight(0, 0, k, l, m) == 1


def test_master_projection_requires_double_harmonic():
    with pytest.raises(NotDoubleHarmonic):
        master_projection(poly("x1^2", 5))
    with pytest.raises(NotDoubleHarmonic):
        decompose_double_harmonic(poly("x1^2", 5))


def test_master_projection_mirrored_input(rng):
    m = 5
    h = random_double_harmonic(m, 1, 2, rng)
    result = master_projection(h)
    # mirrored target: killed by the mirrored skew operator
    assert is_simplicial(result, mirrored=True) or result.is_zero()


def test_master_projection_self_adjoint(rng):
    m = 5
    for (k, l) in [(2, 1), (2, 2), (3, 3)]:
        for _ in range(3):
            p = random_double_harmonic(m, k, l, rng)
            q = random_double_harmonic(m, k, l, rng)
            assert fischer_inner_product(master_projection(p), q) == fischer_inner_product(
                p, master_projection(q)
            )


def _operands(part):
    """{(i, j): A^i S_x^j part} for every nonzero operand of the master series."""
    out = {}
    sx_pow, j = part, 0
    while not sx_pow.is_zero():
        r, i = sx_pow, 0
        while not r.is_zero():
            out[(i, j)] = r
            r = generator_chain(r, (GeneratorTag.A,))
            i += 1
        sx_pow = generator_chain(sx_pow, (GeneratorTag.S_X,))
        j += 1
    return out


def _term_by_term_projection(part):
    """Reference: sum_{i,j} w_ij C^i S_u^j A^i S_x^j part, each chain built separately."""
    m = part.m
    k, l = part.bidegree()
    total = Polynomial.zero(m)
    for (i, j), r in _operands(part).items():
        term = generator_chain(r, (GeneratorTag.C,) * i + (GeneratorTag.S_U,) * j)
        total = total + term.scaled(projection_weight(i, j, k, l, m))
    return total


def _operand(part, i, j):
    """A^i S_x^j part, by its own generator chain."""
    return generator_chain(part, (GeneratorTag.A,) * i + (GeneratorTag.S_X,) * j)


@pytest.mark.parametrize("m", [5, 6, 7])
def test_nested_master_projection_matches_term_by_term(m, rng):
    for l in range(5):
        k = l + (l + m) % 2
        h = random_double_harmonic(m, k, l, rng)
        grid = {(0, 0): h}  # one grid, shared by every cell of the layer
        for i in range(l + 1):
            for j in range(l - i + 1):
                w = _operand(h, i, j)
                if w.is_zero():
                    continue
                got = _master_projection_dominant(grid, i, j)
                assert got == _term_by_term_projection(w), (m, k, l, i, j)
    h = random_double_harmonic(m, 1, 3, rng)
    mirrored = _term_by_term_projection(h.swap_vectors()).swap_vectors()
    assert master_projection(h) == mirrored


def test_project_component_matches_term_by_term_on_every_cell(rng):
    for m, k, l in [(5, 4, 4), (6, 4, 3), (7, 3, 3), (6, 2, 4)]:
        p = random_double_harmonic(m, k, l, rng)
        part = p.swap_vectors() if k < l else p  # a u-dominant layer goes through its swap
        big_k, big_l = part.bidegree()
        for i in range(big_l + 1):
            for j in range(big_l - i + 1):
                w = _operand(part, i, j)
                norm = ladder_alpha(i, j, i, j, big_k - i + j, big_l - i - j, m)
                expected = (_term_by_term_projection(w) if not w.is_zero() else w).scaled(1 / norm)
                if k < l:
                    expected = expected.swap_vectors()
                assert project_component(p, i, j).harmonic == expected, (m, k, l, i, j)


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_commutation_scalar_matches_generator_chains(m, rng):
    """A^r S_x^q (A^i S_x^j P) == c A^{i+r} S_x^{j+q} P for every i + j + q + r <= l,
    on every x-dominant bidegree up to (5, 5) and a u-dominant input's swap."""
    A, S_X = GeneratorTag.A, GeneratorTag.S_X
    parts = [random_double_harmonic(m, k, l, rng, terms=3) for k in range(6) for l in range(k + 1)]
    parts.append(random_double_harmonic(m, 2, 4, rng, terms=3).swap_vectors())
    for part in parts:
        k, l = part.bidegree()
        grid = {(0, 0): part}
        for i in range(l + 1):
            for j in range(l - i + 1):
                base = _operand(part, i, j)
                for q in range(l - i - j + 1):
                    lhs = chain(base, (S_X,) * q)
                    c = _commutation_scalar(k, i, j, q, m)
                    for r in range(l - i - j - q + 1):
                        assert lhs == grid_power(grid, i + r, j + q, A, S_X).scaled(c), (k, l, i, j, q, r)
                        lhs = chain(lhs, (A,))


def test_nested_master_projection_applies_each_generator_once_per_term(rng, monkeypatch):
    p = random_double_harmonic(5, 4, 4, rng)
    terms = _operands(p)
    calls = {GeneratorTag.C: 0, GeneratorTag.S_U: 0}

    def counted(tag, fn):
        def wrapper(q):
            calls[tag] += 1
            return fn(q)

        return wrapper

    for tag in calls:
        monkeypatch.setitem(transvector._GEN_FUNC, tag, counted(tag, transvector._GEN_FUNC[tag]))
    _master_projection_dominant({(0, 0): p}, 0, 0)
    applied = calls[GeneratorTag.C] + calls[GeneratorTag.S_U]
    assert applied <= len(terms)
    assert applied < sum(i + j for i, j in terms)


# -- component projection and decomposition ----------------------------------------


def test_project_component_zero_zero_is_master(rng):
    m = 5
    p = random_double_harmonic(m, 2, 2, rng)
    assert project_component(p, 0, 0).harmonic == master_projection(p)


def test_project_component_recovers_embedded_harmonic():
    m = 5
    hw = highest_weight_vector(1, 0, m)
    comp = project_component(_cell(hw, 1, 0), 1, 0)
    assert comp.harmonic == hw
    assert (comp.index.i, comp.index.j, comp.index.k, comp.index.l) == (1, 0, 1, 0)


def test_project_component_index_errors(rng):
    m = 5
    p = random_double_harmonic(m, 2, 1, rng)
    with pytest.raises(IndexOutOfRange):
        project_component(p, 2, 0)
    with pytest.raises(IndexOutOfRange):
        project_component(p, 0, 2)


#: "apply_generator" is one generator step, "generator_chain" two.
_ENTRY_POINTS = {
    "master_projection": master_projection,
    "project_component": lambda p: project_component(p, 0, 0),
    "decompose_double_harmonic": decompose_double_harmonic,
    "apply_generator": lambda p: generator_chain(p, (GeneratorTag.S_X,)),
    "generator_chain": lambda p: generator_chain(p, (GeneratorTag.S_U, GeneratorTag.S_X)),
}
_DECOMP_ENTRIES = ("master_projection", "project_component", "decompose_double_harmonic")

#: Input text, m, and what each entry point gives for it: an exception type,
#: matched exactly (a plain ValueError is not a NotDoubleHarmonic), or a value
#: (a list, or the text of a polynomial).  The generators map a double harmonic
#: without a bidegree part by part, so x1 + u1 is an error only for the cells.
_ENTRY_ROWS = [
    ("0", 4, dict.fromkeys(_ENTRY_POINTS, ValueError)),
    ("x1*u2", 4, dict.fromkeys(_ENTRY_POINTS, ValueError)),
    ("x1^2", 5, dict.fromkeys(_ENTRY_POINTS, NotDoubleHarmonic)),
    ("x1 + u1", 5, {**dict.fromkeys(_DECOMP_ENTRIES, ValueError), "apply_generator": "x1", "generator_chain": "u1"}),
    ("x1^2 + u1", 5, dict.fromkeys(_ENTRY_POINTS, NotDoubleHarmonic)),
    (
        "0",
        5,
        {
            "master_projection": "0",
            "project_component": ValueError,
            "decompose_double_harmonic": [],
            "apply_generator": "0",
            "generator_chain": "0",
        },
    ),
]


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("text, m, outcomes", _ENTRY_ROWS, ids=[f"{t}-m{m}" for t, m, _ in _ENTRY_ROWS])
def test_entry_points_keep_their_typed_errors(text, m, outcomes, entry):
    p = poly(text, m)
    want = outcomes[entry]
    if isinstance(want, type):
        with pytest.raises(want) as err:
            _ENTRY_POINTS[entry](p)
        assert type(err.value) is want
    else:
        assert _ENTRY_POINTS[entry](p) == (want if isinstance(want, list) else poly(want, m))


def _count_checks(monkeypatch):
    """The inputs of every double-harmonic check made from now on."""
    checked = []
    real = transvector.is_double_harmonic

    def counted(p):
        checked.append(p)
        return real(p)

    monkeypatch.setattr(transvector, "is_double_harmonic", counted)
    _ladder.cache_clear()
    return checked


def test_each_layer_is_validated_once(rng, monkeypatch):
    layers = [random_double_harmonic(5, k, l, rng) for k, l in ((3, 2), (2, 3))]
    checked = _count_checks(monkeypatch)
    for p in layers:  # x-dominant, then u-dominant; 6 cells each (i + j <= 2)
        checked.clear()
        decompose_double_harmonic(p)
        assert checked == [p]
        master_projection(p)  # the same layer again: already validated
        project_component(p, 1, 1)
        assert checked == [p]
        checked.clear()
        generator_chain(p, (GeneratorTag.C,))
        assert len(checked) == 1
    checked.clear()
    decompose_double_harmonic(layers[0])  # a different layer since: validated again
    assert checked == [layers[0]]


def test_a_rejected_layer_is_checked_on_every_call(monkeypatch):
    p = poly("x1^2*u1", 5)
    checked = _count_checks(monkeypatch)
    for calls in (1, 2):
        with pytest.raises(NotDoubleHarmonic):
            project_component(p, 0, 0)
        assert len(checked) == calls


def test_interleaved_layers_give_fresh_results(rng):
    layers = [random_double_harmonic(5, 3, 2, rng), random_double_harmonic(5, 2, 3, rng)]
    cells = [(i, j) for i in range(3) for j in range(3 - i)]
    fresh = {}
    for n, p in enumerate(layers):
        for i, j in cells:
            _ladder.cache_clear()
            fresh[n, i, j] = project_component(p, i, j)
    for i, j in cells:
        for n, p in enumerate(layers):
            assert project_component(p, i, j) == fresh[n, i, j], (n, i, j)


def test_decompose_x1u1():
    m = 5
    p = poly("x1*u1", m)
    comps = decompose_double_harmonic(p)
    by_cell = {(c.index.i, c.index.j): c for c in comps}
    # x1*u1 is symmetric under swapping the vectors, so its antisymmetric
    # simplicial cell (0,0) vanishes; only the trace and symmetric cells remain
    assert set(by_cell) == {(1, 0), (0, 1)}
    assert by_cell[(1, 0)].harmonic == Polynomial.constant(m, Fraction(1, 5))
    basis_11 = highest_weight_vector(1, 1, m)
    assert fischer_inner_product(p, basis_11).is_zero()
    total = Polynomial.zero(m)
    for c in comps:
        total = total + c.embedded()
    assert total == p


def test_decompose_simplicial_is_single_cell(rng):
    m = 5
    h = random_double_harmonic(m, 2, 2, rng)
    hs = master_projection(h)
    if hs.is_zero():
        hs = highest_weight_vector(2, 2, m)
    comps = decompose_double_harmonic(hs)
    assert len(comps) == 1
    assert (comps[0].index.i, comps[0].index.j) == (0, 0)
    assert comps[0].harmonic == hs


def test_decompose_single_skew_cell():
    m = 5
    hw = highest_weight_vector(2, 0, m)
    cell = generator_chain(hw, (GeneratorTag.S_U,))
    comps = decompose_double_harmonic(cell)
    assert len(comps) == 1
    assert (comps[0].index.i, comps[0].index.j) == (0, 1)
    assert comps[0].harmonic == hw


def test_strategies_agree(rng):
    # the direct cell projections against the sequential peel of tests/reference.py
    for m in (5, 6):
        draws = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(4)]
        draws += [(k, rng.randint(k + 1, 3)) for k in (0, rng.randint(1, 2))]
        for k, l in draws:
            h = random_double_harmonic(m, k, l, rng)
            direct = decompose_double_harmonic(h)
            seq = peel_double_harmonic(h)
            assert [(c.index, c.mirrored) for c in direct] == [
                (c.index, c.mirrored) for c in seq
            ]
            assert all(a.harmonic == b.harmonic for a, b in zip(direct, seq))


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([5, 6, 7]),
    st.integers(0, 2).flatmap(lambda k: st.tuples(st.just(k), st.integers(k + 1, 3))),
    st.integers(0, 2**32 - 1),
)
def test_u_dominant_input_is_the_mirror_of_its_swap(m, kl, seed):
    k, l = kl
    p = random_double_harmonic(m, k, l, random.Random(seed), terms=3)
    q = p.swap_vectors()
    assert _orient(p) == (q, True)
    assert _orient(q) == (q, False)
    assert master_projection(p) == master_projection(q).swap_vectors()
    for i in range(k + 1):
        for j in range(k - i + 1):
            got, want = project_component(p, i, j), project_component(q, i, j)
            assert (got.index, got.mirrored, want.mirrored) == (want.index, True, False)
            assert got.harmonic == want.harmonic.swap_vectors()
    got, want = decompose_double_harmonic(p), decompose_double_harmonic(q)
    assert [c.index for c in got] == [c.index for c in want]
    assert all(c.mirrored for c in got) and not any(c.mirrored for c in want)
    assert [c.harmonic for c in got] == [c.harmonic.swap_vectors() for c in want]


def _generator_embedding(comp):
    step = GeneratorTag.S_X if comp.mirrored else GeneratorTag.S_U
    return chain(comp.harmonic, (GeneratorTag.C,) * comp.index.i + (step,) * comp.index.j)


@pytest.mark.parametrize("m", [5, 6, 7])
def test_embedded_matches_the_generator_chain(m):
    rng = random.Random(60 + m)
    seen = set()
    for k, l in ((3, 2), (2, 3), (4, 3), (3, 4)):
        for comp in decompose_double_harmonic(random_double_harmonic(m, k, l, rng, terms=3)):
            assert comp.embedded() == _generator_embedding(comp)
            seen.add((comp.mirrored, comp.index.j > 0))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("mirrored", [False, True])
def test_embedded_steps_by_the_generators_off_the_simplicial_kernel(mirrored):
    m = 5
    rng = random.Random(7)
    h = random_double_harmonic(m, 3, 1, rng, terms=3)
    killed_by_a = poly("x1^2", m)  # <d_u, d_x> kills it, Delta_x does not
    if mirrored:
        h, killed_by_a = h.swap_vectors(), killed_by_a.swap_vectors()
    assert not cross_dd(h).is_zero()
    for harmonic in (h, killed_by_a):
        comp = SimplicialComponent(LadderIndex(1, 2, 3, 1), harmonic, mirrored)
        assert comp.embedded() == _generator_embedding(comp)


def test_decompose_full_constant():
    m = 5
    result = decompose_full(Polynomial.constant(m, 7))
    assert len(result.entries) == 1
    entry = result.entries[0]
    assert (entry.a, entry.b) == (0, 0)
    assert entry.component.harmonic == Polynomial.constant(m, 7)
    assert result.is_exact()


def test_decompose_full_round_trip(rng):
    for m in (5, 6, 7):
        for _ in range(3):
            k, l = rng.randint(0, 3), rng.randint(0, 3)
            p = random_bihomogeneous(m, k, l, rng)
            result = decompose_full(p)
            assert result.is_exact()


def test_decompose_full_mixed_bidegrees(rng):
    m = 5
    p = random_bihomogeneous(m, 2, 1, rng) + random_bihomogeneous(m, 1, 2, rng) + one(m)
    result = decompose_full(p)
    assert result.is_exact()


def test_all_emitted_harmonics_are_simplicial(rng):
    m = 5
    p = random_bihomogeneous(m, 3, 2, rng) + random_bihomogeneous(m, 2, 3, rng)
    for entry in decompose_full(p).entries:
        assert is_simplicial(entry.component.harmonic, entry.component.mirrored)


def _signed_permutation(p, perm, signs):
    """p with x_i -> signs[i] x_perm[i] and u_i -> signs[i] u_perm[i]: an O(m) change of variables."""
    m = p.m
    out = {}
    for mono, coeff in p.terms():
        xe, ue, sign = [0] * m, [0] * m, 1
        for i in range(m):
            xe[perm[i]], ue[perm[i]] = mono.xexp[i], mono.uexp[i]
            if signs[i] < 0 and (mono.xexp[i] + mono.uexp[i]) % 2:
                sign = -sign
        out[Monomial(tuple(xe), tuple(ue))] = coeff * sign
    return Polynomial(m, out)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=2),
    st.permutations(range(5)),
    st.lists(st.sampled_from([1, -1]), min_size=5, max_size=5),
    st.integers(0, 2**32 - 1),
)
def test_decompose_full_properties(bidegrees, perm, signs, seed):
    m = 5
    rng = random.Random(seed)
    p = Polynomial.zero(m)
    for k, l in bidegrees:
        p = p + random_bihomogeneous(m, k, l, rng, terms=3)
    result = decompose_full(p)
    assert result.is_exact()
    assert verify_component_orthogonality(result)["passed"]
    moved = decompose_full(_signed_permutation(p, perm, signs))
    labels = [(e.a, e.b, e.component.index, e.component.mirrored) for e in result.entries]
    assert [(e.a, e.b, e.component.index, e.component.mirrored) for e in moved.entries] == labels
    assert [e.component.harmonic for e in moved.entries] == [
        _signed_permutation(e.component.harmonic, perm, signs) for e in result.entries
    ]


def _random_simplicial(m, k, l, rng):
    """A random nonzero simplicial harmonic of weight (k, l), k >= l."""
    while True:
        h = master_projection(random_double_harmonic(m, k, l, rng))
        if not h.is_zero():
            return h


def test_component_count_matches_tensor_multiplicities(rng):
    # fill every branching cell of bidegree (a, b) with a random harmonic; the
    # pipeline must find exactly (b+1)(b+2)/2 components and recover each one
    m = 5
    for (a, b) in [(2, 1), (2, 2), (3, 2)]:
        planted = {}
        total = Polynomial.zero(m)
        for i in range(b + 1):
            for j in range(b - i + 1):
                h = _random_simplicial(m, a - i + j, b - i - j, rng)
                planted[(i, j)] = h
                total = total + generator_chain(
                    h, (GeneratorTag.C,) * i + (GeneratorTag.S_U,) * j
                )
        comps = decompose_double_harmonic(total)
        assert len(comps) == (b + 1) * (b + 2) // 2
        for c in comps:
            assert c.harmonic == planted[(c.index.i, c.index.j)]


def test_decomposition_orthogonality_report(rng):
    m = 5
    p = random_bihomogeneous(m, 2, 2, rng)
    report = verify_component_orthogonality(decompose_full(p))
    assert report["passed"]
    assert report["pairs_checked"] == report["components"] * (report["components"] - 1) // 2


def test_orthogonality_report_names_a_failing_pair():
    # a component listed twice is not orthogonal to its copy
    result = decompose_full(poly("x1*u1", 5))
    doubled = DecompositionResult(result.m, result.source, result.entries + result.entries[:1])
    report = verify_component_orthogonality(doubled)
    assert report["failures"] == [(0, 2)] and report["passed"] is False


def test_cross_fischer_orthogonality_example(rng):
    m = 5
    c1 = generator_chain(one(m), (GeneratorTag.C,))
    su = generator_chain(highest_weight_vector(2, 0, m), (GeneratorTag.S_U,))
    assert fischer_inner_product(c1, su).is_zero()
    h = random_double_harmonic(m, 1, 1, rng)
    from harmonic2v.operators import mul_normsq_x

    assert fischer_inner_product(mul_normsq_x(h), random_double_harmonic(m, 3, 1, rng)).is_zero()
