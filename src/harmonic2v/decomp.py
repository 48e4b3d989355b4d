"""Decomposition of double harmonics into simplicial harmonics.

The ladder cells C^i S_u^j H with H in the simplicial space of weight (k, l)
exhaust the bihomogeneous double harmonics.  Closed-form ladder constants give
exact projections onto every cell; combining them with the double Fischer
split decomposes arbitrary polynomials into irreducible pieces.

``project_component`` projects one cell (i, j) of a layer P of x-degree K.
The cells of a layer share one operand grid G[a, b] = A^a S_x^b P, built on
demand, each entry one generator step from a neighbour: the cell's operand
A^i S_x^j P is G[i, j], and each operand A^p S_x^q (A^i S_x^j P) of its master
series is c G[i+p, j+q], where telescoping A S_x = (H_x+2)/(H_x+1) S_x A gives
c = (K+j+m/2-1)^(q) / (K+j-i+m/2-1)^(q) in rising factorials.
``project_component`` is the one checked entry: it validates its input and
orients it (``_orient``), so that inputs with u-degree exceeding x-degree are
projected through their x/u swap, and swaps the harmonic back.  A one-entry
memo keeps the last layer, validated, oriented and with its grid, so the
successive calls of a decomposition check each layer once.
``master_projection`` (the (0, 0) cell) and ``decompose_double_harmonic``
(every cell of the ladder) go through it.
Mirrored components are flagged and embed through C^i S_x^j instead of
C^i S_u^j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, List, Tuple

from .errors import IndexOutOfRange, ZeroNormalizer
from .fischer import double_fischer, fischer_inner_product, mul_norm_powers
from .operators import cross_dd, laplacian_u, laplacian_x, linear_combination, skew_ux, skew_xu
from .poly import Polynomial
from .rationals import GAUSSIAN_I, falling, rising
from .transvector import (
    GeneratorTag,
    _check_double_harmonic,
    _require_theory_dimension,
    chain,
    grid_power,
    is_double_harmonic,
    nested_sum,
)

_A, _C, _S_X, _S_U = GeneratorTag.A, GeneratorTag.C, GeneratorTag.S_X, GeneratorTag.S_U


def _check_kl(k: int, l: int):
    if not k >= l >= 0:
        raise IndexOutOfRange(f"need k >= l >= 0, got ({k}, {l})")


# -- highest weight vectors ------------------------------------------------------


def highest_weight_vector(k: int, l: int, m: int) -> Polynomial:
    """The canonical simplicial harmonic of weight (k, l) for k >= l >= 0.

    Built from the conjugated complex coordinates z_j = x_{2j-1} + i x_{2j} and
    w_j = u_{2j-1} + i u_{2j} as conj(z_1)^{k-l} (conj(z_1)conj(w_2) -
    conj(z_2)conj(w_1))^l.
    """
    _require_theory_dimension(m)
    _check_kl(k, l)

    def conj_pair(axis: str, j: int) -> Polynomial:
        re = Polynomial.variable(m, axis, 2 * j - 1)
        im = Polynomial.variable(m, axis, 2 * j)
        return re - im.scaled(GAUSSIAN_I)

    z1, z2 = conj_pair("x", 1), conj_pair("x", 2)
    w1, w2 = conj_pair("u", 1), conj_pair("u", 2)
    out = Polynomial.constant(m, 1)
    for _ in range(k - l):
        out = out * z1
    det = z1 * w2 - z2 * w1
    for _ in range(l):
        out = out * det
    return out


# -- ladder constants -------------------------------------------------------------


def ladder_phi(i: int, j: int, k: int, l: int, m: int) -> Fraction:
    """Constant of S_x on C^i S_u^j H_{k,l}: image is phi * C^i S_u^{j-1} H_{k,l}."""
    _check_kl(k, l)
    if i < 0 or j < 0:
        raise IndexOutOfRange("ladder indices must be non-negative")
    return ladder_alpha(i, j, 0, 1, k, l, m) if j else Fraction(0)


def ladder_c(i: int, k: int, l: int, m: int) -> Fraction:
    """Constant of A on C^i H_{k,l}: image is c_i * C^{i-1} H_{k,l}; c_0 = 0."""
    return ladder_psi(i, 0, k, l, m)


def ladder_psi(i: int, j: int, k: int, l: int, m: int) -> Fraction:
    """Constant of A on C^i S_u^j H_{k,l}: image is psi * C^{i-1} S_u^j H_{k,l}."""
    _check_kl(k, l)
    if i < 0 or j < 0:
        raise IndexOutOfRange("ladder indices must be non-negative")
    return ladder_alpha(i, j, 1, 0, k, l, m) if i else Fraction(0)


# The ladder constants are pure functions of a few small ints, called once per
# cell and operand: a decomposition meets only a few hundred distinct ones.
@lru_cache(maxsize=4096)
def ladder_alpha(i: int, j: int, p: int, q: int, k: int, l: int, m: int) -> Fraction:
    """Constant of A^p S_x^q on C^i S_u^j H_{k,l} (p <= i, q <= j)."""
    _check_kl(k, l)
    if min(i, j, p, q) < 0 or p > i or q > j:
        raise IndexOutOfRange(f"invalid ladder exponents (i,j,p,q)=({i},{j},{p},{q})")
    half_m = Fraction(m, 2)
    out = falling(i, p) * falling(j, q) * rising(k - l - j + 1, q)
    out *= falling(k + half_m + i - 1, p) / falling(k + half_m + i - j + q - 2, p)
    out *= falling(l + half_m + j - 2, q) * falling(l + half_m + i - 2, p)
    out /= falling(l + half_m + i + j - 2, q) * falling(l + half_m + i + j - q - 2, p)
    out *= falling(k + l + m + i - 3, p)
    return out


@lru_cache(maxsize=4096)
def projection_weight(i: int, j: int, k: int, l: int, m: int) -> Fraction:
    """Weight of the C^i S_u^j A^i S_x^j term of the cell projection on (k, l)."""
    _check_kl(k, l)
    big_k = Fraction(k) + Fraction(m, 2)
    big_l = Fraction(l) + Fraction(m, 2)
    num = (big_k - i + j - 1) * falling(big_l - j - 3, i)
    den = (
        (big_k + j - 1)
        * falling(big_l - 3, i)
        * falling(k + l + m - 4, i)
        * rising(k - l + 2, j)
    )
    if not den:
        raise ZeroNormalizer(f"projection weight denominator vanishes at (i,j)=({i},{j})")
    sign = -1 if (i + j) % 2 else 1
    return Fraction(sign, factorial(i) * factorial(j)) * num / den


# -- cell data -------------------------------------------------------------------


@dataclass(frozen=True)
class LadderIndex:
    """Cell label: C^i S_u^j applied to the simplicial space of weight (k, l)."""

    i: int
    j: int
    k: int
    l: int

    def __post_init__(self):
        _check_kl(self.k, self.l)
        if self.i < 0 or not 0 <= self.j <= self.k - self.l:
            raise IndexOutOfRange(
                f"cell ({self.i},{self.j}) outside the ladder of weight ({self.k},{self.l})"
            )


@dataclass(frozen=True)
class SimplicialComponent:
    """A simplicial harmonic together with its ladder position.

    ``mirrored`` marks components produced by the swapped (u-dominant) pipeline;
    they embed through C^i S_x^j and their harmonic is killed by <u, d_x>
    instead of <x, d_u>.
    """

    index: LadderIndex
    harmonic: Polynomial
    mirrored: bool = False

    def embedded(self) -> Polynomial:
        """C^i S_u^j harmonic, or C^i S_x^j harmonic when mirrored.

        When <d_u, d_x> and Delta_x kill the harmonic h, S_u^j h is <u, d_x>^j h:
        <d_u, d_x> <u, d_x> = <u, d_x> <d_u, d_x> + Delta_x, and Delta_x commutes
        with <u, d_x>, so <d_u, d_x> kills every <u, d_x>^t h and the
        |u|^2 <d_u, d_x> part of each S_u step is zero.  Mirrored, S_x^j h is
        <x, d_u>^j h under <d_u, d_x> and Delta_u.  Any other h steps by the
        generators, so the result is C^i S^j h for every harmonic.
        """
        h, (i, j) = self.harmonic, (self.index.i, self.index.j)
        if self.mirrored:
            step, skew, lap = _S_X, skew_xu, laplacian_u
        else:
            step, skew, lap = _S_U, skew_ux, laplacian_x
        if j and cross_dd(h).is_zero() and lap(h).is_zero():
            step = skew
        return chain(h, (_C,) * i + (step,) * j)


def is_simplicial(p: Polynomial, mirrored: bool = False) -> bool:
    """Membership in the simplicial kernel (all four conditions, exactly)."""
    if not is_double_harmonic(p):
        return False
    if not cross_dd(p).is_zero():
        return False
    skew = skew_ux(p) if mirrored else skew_xu(p)
    return skew.is_zero()


# -- master projection ------------------------------------------------------------


@lru_cache(maxsize=4096)
def _commutation_scalar(k: int, i: int, j: int, q: int, m: int) -> Fraction:
    """c in S_x^q A^i S_x^j P = c A^i S_x^{j+q} P, for a double harmonic P of x-degree k.

    Telescoped from A S_x = (H_x+2)/(H_x+1) S_x A: moving one S_x past A^i on
    S_x^{j+t} P, of x-degree d = k + j + t, gives (d + m/2 - 1)/(d - i + m/2 - 1).
    """
    half_m = Fraction(m, 2)
    return rising(k + j + half_m - 1, q) / rising(k + j - i + half_m - 1, q)


def _master_projection_dominant(grid: dict, i: int, j: int) -> Polynomial:
    """Cell (0,0) projection of the operand w = A^i S_x^j part, for a bihomogeneous
    double harmonic ``part = grid[0, 0]`` of bidegree (K, L) with K >= L.

    ``grid`` holds G[a, b] = A^a S_x^b part and is filled on demand by
    ``grid_power``.  Each operand A^p S_x^q w of the series is the grid entry
    c G[i+p, j+q], c = ``_commutation_scalar(K, i, j, q, m)``.  The double
    series sum_{p,q} w_pq C^p S_u^q A^p S_x^q w is evaluated nested, as
    sum_p C^p (sum_q S_u^q (w_pq A^p S_x^q w)), innermost sums first.  Every
    partial sum is bihomogeneous (for fixed p the q-sum from q upward has
    bidegree (k-p+q, l-p-q), where (k, l) is w's bidegree), so the
    bidegree-dependent scalings of S_u and C apply to it exactly.  Operands
    with p + q > l have negative u-degree and vanish.
    """
    part = grid[0, 0]
    m = part.m
    big_k, big_l = part.bidegree()
    k, l = big_k - i + j, big_l - i - j

    def term(p: int, q: int) -> Polynomial:
        weight = _commutation_scalar(big_k, i, j, q, m) * projection_weight(p, q, k, l, m)
        return grid_power(grid, i + p, j + q, _A, _S_X).scaled(weight)

    inner = [nested_sum(_S_U, [term(p, q) for q in range(l - p + 1)]) for p in range(l + 1)]
    total = nested_sum(_C, inner)
    return Polynomial.zero(m) if total is None else total


def _orient(p: Polynomial) -> Tuple[Polynomial, bool]:
    """Validate a nonzero bihomogeneous double harmonic and return ``(part, mirrored)``.

    ``part`` is p itself when its bidegree (k, l) has k >= l, and p with x and
    u swapped otherwise (``mirrored``); every projection works on the
    x-dominant part.
    """
    _require_theory_dimension(p.m)
    if p.is_zero():
        raise ValueError("the zero polynomial has no ladder cells")
    _check_double_harmonic(p)
    bid = p.bidegree()
    if bid is None:
        raise ValueError("projection needs a bihomogeneous input")
    k, l = bid
    return (p.swap_vectors(), True) if k < l else (p, False)


@lru_cache(maxsize=1)
def _ladder(p: Polynomial) -> Tuple[Polynomial, bool, dict]:
    """``_orient(p)`` and the operand grid {(a, b): A^a S_x^b part}, seeded with part.

    ``decompose_double_harmonic`` projects the cells of a layer in turn, so
    keeping the last layer validates it once and lets its cells share the grid.
    A raised error is not cached.
    """
    part, mirrored = _orient(p)
    return part, mirrored, {(0, 0): part}


def project_component(p: Polynomial, i: int, j: int) -> SimplicialComponent:
    """Extract the (i, j) ladder cell of a nonzero bihomogeneous double harmonic.

    The cell's operand w = A^i S_x^j p and the operands A^p S_x^q w of its
    master series are read, up to a closed-form scalar, from one grid of
    A^a S_x^b p per layer, shared by successive calls on the same p.  A
    u-dominant p is projected through its swap; the harmonic is swapped back
    and the component flagged ``mirrored``.
    """
    part, mirrored, grid = _ladder(p)
    bid = part.bidegree()
    pd, qd = bid
    if not (0 <= i <= qd and 0 <= j <= qd - i):
        raise IndexOutOfRange(f"cell ({i},{j}) outside the ladder range of bidegree {bid}")
    tk, tl = pd - i + j, qd - i - j
    norm = ladder_alpha(i, j, i, j, tk, tl, p.m)
    if not norm:
        raise ZeroNormalizer(f"component ({i},{j}) is absent at target ({tk},{tl})")
    w = grid_power(grid, i, j, _A, _S_X)
    h = (_master_projection_dominant(grid, i, j) if not w.is_zero() else w).scaled(1 / norm)
    return SimplicialComponent(LadderIndex(i, j, tk, tl), h.swap_vectors() if mirrored else h, mirrored)


def master_projection(p: Polynomial) -> Polynomial:
    """Project a bihomogeneous double harmonic onto its simplicial part, cell (0, 0)."""
    _require_theory_dimension(p.m)
    return p if p.is_zero() else project_component(p, 0, 0).harmonic


# -- decomposition ----------------------------------------------------------------


def decompose_double_harmonic(p: Polynomial) -> List[SimplicialComponent]:
    """Split a bihomogeneous double harmonic into its nonzero ladder cells.

    The cells of bidegree (k, l) are (i, j), i + j <= min(k, l); p = 0 has none.
    A nonzero p without a bidegree gets the cell (0, 0), whose projection says why.
    """
    _require_theory_dimension(p.m)
    if p.is_zero():
        return []
    l = min(p.bidegree() or (0, 0))
    cells = (project_component(p, i, j) for i in range(l + 1) for j in range(l - i + 1))
    return [comp for comp in cells if not comp.harmonic.is_zero()]


@dataclass(frozen=True)
class DecompositionEntry:
    """One fully-labelled piece: |x|^{2a} |u|^{2b} C^i S_(u|x)^j harmonic."""

    a: int
    b: int
    component: SimplicialComponent

    def embedded(self) -> Polynomial:
        return mul_norm_powers(self.component.embedded(), self.a, self.b)


@dataclass(frozen=True)
class DecompositionResult:
    """Full decomposition of a polynomial into irreducible pieces."""

    m: int
    source: Polynomial
    entries: Tuple[DecompositionEntry, ...]

    def reconstruct(self) -> Polynomial:
        """The sum of the embedded entries, streamed into one term dict: each
        embedding is made, added and dropped before the next."""
        return linear_combination(self.m, ((1, None, entry.embedded()) for entry in self.entries))

    def is_exact(self) -> bool:
        return self.reconstruct() == self.source


def decompose_full(p: Polynomial) -> DecompositionResult:
    """Two-stage pipeline: double Fischer split, then ladder decomposition."""
    _require_theory_dimension(p.m)
    entries: List[DecompositionEntry] = []
    for part in p.bidegree_split().values():
        for layer in double_fischer(part):
            for comp in decompose_double_harmonic(layer.part):
                entries.append(DecompositionEntry(layer.i, layer.j, comp))
    entries.sort(key=lambda e: (e.a, e.b, e.component.index.i, e.component.index.j, e.component.mirrored))
    return DecompositionResult(p.m, p, tuple(entries))


def verify_component_orthogonality(result: DecompositionResult) -> Dict[str, object]:
    """Pairwise Fischer inner products between distinct embedded components."""
    embedded = [entry.embedded() for entry in result.entries]
    failures = []
    for i in range(len(embedded)):
        for j in range(i + 1, len(embedded)):
            if not fischer_inner_product(embedded[i], embedded[j]).is_zero():
                failures.append((i, j))
    return {
        "components": len(embedded),
        "pairs_checked": len(embedded) * (len(embedded) - 1) // 2,
        "failures": failures,
        "passed": not failures,
    }
