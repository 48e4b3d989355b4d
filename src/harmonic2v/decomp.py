"""Decomposition of double harmonics into simplicial harmonics.

The ladder cells C^i S_u^j H with H in the simplicial space of weight (k, l)
exhaust the bihomogeneous double harmonics.  Closed-form ladder constants give
exact projections onto every cell; combining them with the double Fischer
split decomposes arbitrary polynomials into irreducible pieces.

Inputs with u-degree exceeding x-degree are handled by the mirrored pipeline:
swap the two vector variables, decompose, swap back.  Mirrored components are
flagged and embed through C^i S_x^j instead of C^i S_u^j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, List, Tuple

from .errors import IndexOutOfRange, ZeroNormalizer
from .fischer import double_fischer, mul_norm_powers
from .operators import cross_dd, skew_ux, skew_xu
from .poly import Polynomial
from .rationals import GAUSSIAN_I, falling, rising
from .transvector import (
    GeneratorTag,
    _apply_generator_unchecked,
    _check_double_harmonic,
    _require_theory_dimension,
    chain,
    is_double_harmonic,
)

_A, _C, _S_X, _S_U = GeneratorTag.A, GeneratorTag.C, GeneratorTag.S_X, GeneratorTag.S_U


# -- highest weight vectors ------------------------------------------------------


def highest_weight_vector(k: int, l: int, m: int) -> Polynomial:
    """The canonical simplicial harmonic of weight (k, l) for k >= l >= 0.

    Built from the conjugated complex coordinates z_j = x_{2j-1} + i x_{2j} and
    w_j = u_{2j-1} + i u_{2j} as conj(z_1)^{k-l} (conj(z_1)conj(w_2) -
    conj(z_2)conj(w_1))^l.
    """
    _require_theory_dimension(m)
    if not k >= l >= 0:
        raise IndexOutOfRange(f"need k >= l >= 0, got ({k}, {l})")

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


def _check_kl(k: int, l: int):
    if not k >= l >= 0:
        raise IndexOutOfRange(f"need k >= l >= 0, got ({k}, {l})")


def ladder_phi(i: int, j: int, k: int, l: int, m: int) -> Fraction:
    """Constant of S_x on C^i S_u^j H_{k,l}: image is phi * C^i S_u^{j-1} H_{k,l}."""
    _check_kl(k, l)
    if i < 0 or j < 0:
        raise IndexOutOfRange("ladder indices must be non-negative")
    if j == 0:
        return Fraction(0)
    half_m = Fraction(m, 2)
    return (
        Fraction(j)
        * (k - l - (j - 1))
        * (l + j + half_m - 2)
        / (l + i + j + half_m - 2)
    )


def ladder_c(i: int, k: int, l: int, m: int) -> Fraction:
    """Constant of A on C^i H_{k,l}: image is c_i * C^{i-1} H_{k,l}; c_0 = 0."""
    _check_kl(k, l)
    if i < 0:
        raise IndexOutOfRange("ladder index must be non-negative")
    if i == 0:
        return Fraction(0)
    half_m = Fraction(m, 2)
    return Fraction(i) * (k + half_m + i - 1) * (k + l + m + i - 3) / (k + half_m + i - 2)


def ladder_psi(i: int, j: int, k: int, l: int, m: int) -> Fraction:
    """Constant of A on C^i S_u^j H_{k,l}: image is psi * C^{i-1} S_u^j H_{k,l}."""
    _check_kl(k, l)
    if i < 0 or j < 0:
        raise IndexOutOfRange("ladder indices must be non-negative")
    if i == 0:
        return Fraction(0)
    half_m = Fraction(m, 2)
    return (
        Fraction(i)
        * (k + half_m + i - 1)
        * (l + half_m + i - 2)
        * (k + l + m + i - 3)
        / ((k + half_m + i - j - 2) * (l + half_m + i + j - 2))
    )


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
    if not den or not falling(big_l - 3, i) or not falling(k + l + m - 4, i):
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
        if not self.k >= self.l >= 0:
            raise IndexOutOfRange(f"need k >= l >= 0, got ({self.k}, {self.l})")
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
        step = _S_X if self.mirrored else _S_U
        return chain(self.harmonic, (_C,) * self.index.i + (step,) * self.index.j)


def is_simplicial(p: Polynomial, mirrored: bool = False) -> bool:
    """Membership in the simplicial kernel (all four conditions, exactly)."""
    if not is_double_harmonic(p):
        return False
    if not cross_dd(p).is_zero():
        return False
    skew = skew_ux(p) if mirrored else skew_xu(p)
    return skew.is_zero()


# -- master projection ------------------------------------------------------------


def _master_projection_dominant(part: Polynomial) -> Polynomial:
    """Cell (0,0) projection of a bihomogeneous double harmonic with k >= l.

    The double series runs over all (i, j) with a surviving operator term;
    cells of the operand satisfy i + j <= l, so iteration stops at the first
    annihilated chain.
    """
    m = part.m
    k, l = part.bidegree()
    total = Polynomial.zero(m)
    sx_pow = part
    j = 0
    while not sx_pow.is_zero():
        r = sx_pow
        i = 0
        while not r.is_zero():
            term = chain(r, (_C,) * i + (_S_U,) * j)
            total = total + term.scaled(projection_weight(i, j, k, l, m))
            r = _apply_generator_unchecked(_A, r)
            i += 1
        sx_pow = _apply_generator_unchecked(_S_X, sx_pow)
        j += 1
    return total


def master_projection(p: Polynomial) -> Polynomial:
    """Project a bihomogeneous double harmonic onto its simplicial part."""
    _require_theory_dimension(p.m)
    if p.is_zero():
        return p
    _check_double_harmonic(p)
    bid = p.bidegree()
    if bid is None:
        raise ValueError("master projection needs a bihomogeneous input")
    k, l = bid
    if k >= l:
        return _master_projection_dominant(p)
    return _master_projection_dominant(p.swap_vectors()).swap_vectors()


def project_component(p: Polynomial, i: int, j: int) -> SimplicialComponent:
    """Extract the (i, j) ladder cell of a bihomogeneous double harmonic."""
    _require_theory_dimension(p.m)
    _check_double_harmonic(p)
    bid = p.bidegree()
    if bid is None:
        raise ValueError("component projection needs a bihomogeneous input")
    pd, qd = bid
    mirrored = pd < qd
    if mirrored:
        comp = project_component(p.swap_vectors(), i, j)
        return SimplicialComponent(comp.index, comp.harmonic.swap_vectors(), mirrored=True)
    if not (0 <= i <= qd and 0 <= j <= qd - i):
        raise IndexOutOfRange(f"cell ({i},{j}) outside the ladder range of bidegree {bid}")
    tk, tl = pd - i + j, qd - i - j
    norm = ladder_alpha(i, j, i, j, tk, tl, p.m)
    if not norm:
        raise ZeroNormalizer(f"component ({i},{j}) is absent at target ({tk},{tl})")
    w = chain(p, (_A,) * i + (_S_X,) * j)
    h = _master_projection_dominant(w) if not w.is_zero() else w
    return SimplicialComponent(LadderIndex(i, j, tk, tl), h.scaled(1 / norm))


# -- decomposition ----------------------------------------------------------------


def _decompose_dominant_direct(part: Polynomial) -> List[SimplicialComponent]:
    _, l = part.bidegree()
    out = []
    for i in range(l + 1):
        for j in range(l - i + 1):
            comp = project_component(part, i, j)
            if not comp.harmonic.is_zero():
                out.append(comp)
    return out


def _decompose_dominant_sequential(part: Polynomial) -> List[SimplicialComponent]:
    """Peel cells in decreasing (j, i) order, subtracting embedded components.

    After the cells with a higher S_u power (or equal power and higher C power)
    are removed, the chain A^i S_x^j annihilates every remaining cell except
    (i, j) itself, so one normalization recovers the harmonic.
    """
    m = part.m
    k, l = part.bidegree()
    residual = part
    found: List[Tuple[int, int, SimplicialComponent]] = []
    cells = sorted(
        ((i, j) for i in range(l + 1) for j in range(l - i + 1)),
        key=lambda c: (-c[1], -c[0]),
    )
    for i, j in cells:
        if residual.is_zero():
            break
        w = chain(residual, (_A,) * i + (_S_X,) * j)
        if w.is_zero():
            continue
        tk, tl = k - i + j, l - i - j
        h = w.scaled(1 / ladder_alpha(i, j, i, j, tk, tl, m))
        comp = SimplicialComponent(LadderIndex(i, j, tk, tl), h)
        found.append((i, j, comp))
        residual = residual - comp.embedded()
    if not residual.is_zero():
        raise ArithmeticError("sequential peeling left a nonzero residual")
    return [c for _, _, c in sorted(found, key=lambda t: (t[0], t[1]))]


def decompose_double_harmonic(p: Polynomial, strategy: str = "direct") -> List[SimplicialComponent]:
    """Split a bihomogeneous double harmonic into its ladder cells."""
    _require_theory_dimension(p.m)
    if p.is_zero():
        return []
    _check_double_harmonic(p)
    bid = p.bidegree()
    if bid is None:
        raise ValueError("decomposition needs a bihomogeneous input")
    if strategy not in ("direct", "sequential"):
        raise ValueError(f"unknown strategy {strategy!r}")
    k, l = bid
    if k < l:
        comps = decompose_double_harmonic(p.swap_vectors(), strategy)
        return [
            SimplicialComponent(c.index, c.harmonic.swap_vectors(), mirrored=True) for c in comps
        ]
    if strategy == "direct":
        return _decompose_dominant_direct(p)
    return _decompose_dominant_sequential(p)


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
        total = Polynomial.zero(self.m)
        for entry in self.entries:
            total = total + entry.embedded()
        return total

    def is_exact(self) -> bool:
        return self.reconstruct() == self.source


def decompose_full(p: Polynomial, strategy: str = "direct") -> DecompositionResult:
    """Two-stage pipeline: double Fischer split, then ladder decomposition."""
    _require_theory_dimension(p.m)
    entries: List[DecompositionEntry] = []
    for _, part in sorted(p.bidegree_split().items()):
        for layer in double_fischer(part):
            for comp in decompose_double_harmonic(layer.part, strategy):
                entries.append(DecompositionEntry(layer.i, layer.j, comp))
    entries.sort(key=lambda e: (e.a, e.b, e.component.index.i, e.component.index.j, e.component.mirrored))
    return DecompositionResult(p.m, p, tuple(entries))


def verify_component_orthogonality(result: DecompositionResult) -> Dict[str, object]:
    """Pairwise Fischer inner products between distinct embedded components."""
    from .fischer import fischer_inner_product

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
