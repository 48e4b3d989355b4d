"""Reference routes for the tests: the sequential peel, the term-by-term
extremal projection, the fibration and full-chain integrals over V_2(R^m), the
polynomial text rendered from ``terms()`` and the decompose document through
``json.dumps``.

The peel shares the library's building blocks (``double_fischer``, the
generators and ``ladder_alpha``) but not its projections: instead of
projecting every cell straight from the layer, it peels cells off one at a
time and subtracts each embedded component before the next.  Agreement with
``decompose_full`` therefore checks the master projection and the cell
weights against a different route to the same components.

The term-by-term projection builds each term c_j |v|^{2j} Delta_v^j of the
extremal series separately, where the library sums the series in nested form.

The fibration integral averages u over the sphere of x^perp and then x over
S^{m-1}, with Pizzetti's formula on each sphere; it shares no code with the
library's Stiefel path (``gamma_constant``, ``_pi_ij``, ``cross_dd``).

The full-chain Stiefel integral applies A^{2i} to the whole layer H_i, where
the library first keeps only its diagonal terms x^c u^c.

The closed forms of gamma_i and A^{2 beta} C^{2 beta}[1] are written as
explicit products, where the library divides a zonal coefficient of C^{2i}[1]
by a ladder constant.  The unit-argument product identity is checked with its
3F2 factor as the two-term sum 1 - (a+c)(b-c)/((a+n)(b+n)), where the library
evaluates the general product transformation at z = 1.

The reference generators compose S_x, S_u and C from the atoms and
``Polynomial`` arithmetic, one normalized intermediate per product, scaling
and sum, where the library writes each generator's linear combination into
one term dict; the reference chain applies them to every bidegree part and
adds the images with ``+``.

The polynomial text is rendered term by term from the ``Monomial`` and
``GaussianRational`` that ``terms()`` yields, where ``str(Polynomial)`` reads
the packed keys and integer numerators.

The decompose document is built as nested dicts, one per harmonic term from
``str()`` of the ``Monomial`` and ``GaussianRational`` that ``terms()``
yields, with its input rendered by ``polynomial_text``, and encoded by
``json.dumps``; the CLI writes the same bytes directly.

The Fischer inner product is computed by literally differentiating: conj(P)(d)
is applied to Q one partial derivative at a time and the constant term read,
where the library pairs the shared support of P and Q with exponent
factorials.

The Monte Carlo oracle orthonormalizes a whole chunk of Haar frames at once
into (count, m) arrays and evaluates each polynomial on their columns, where
the library streams each chunk in blocks through one reused coordinate-row
buffer; both draw each chunk from the same Philox substream.
"""

import json
from fractions import Fraction
from math import factorial, prod, sqrt
from typing import List, Sequence, Tuple

import numpy as np

from harmonic2v import (
    DimensionMismatch,
    GaussianRational,
    GeneratorTag,
    Polynomial,
    VariableOutOfRange,
    double_fischer,
    eval_pfq,
    ladder_alpha,
    sphere_integrate,
)
from harmonic2v.decomp import (
    DecompositionEntry,
    DecompositionResult,
    LadderIndex,
    SimplicialComponent,
)
from harmonic2v.fischer import _pi_ij
from harmonic2v.operators import (
    cross_dd,
    laplacian_u,
    laplacian_x,
    mul_inner_ux,
    mul_normsq_u,
    mul_normsq_x,
    skew_ux,
    skew_xu,
)
from harmonic2v.poly import FIELD_MASK, exponents, field_shift
from harmonic2v.stiefel import gamma_constant
from harmonic2v.transvector import chain

_A, _S_X = GeneratorTag.A, GeneratorTag.S_X


def _peel_dominant(part: Polynomial) -> List[SimplicialComponent]:
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


def peel_double_harmonic(p: Polynomial) -> List[SimplicialComponent]:
    """Ladder cells of a bihomogeneous double harmonic, u-dominant input swapped."""
    if p.is_zero():
        return []
    k, l = p.bidegree()
    if k >= l:
        return _peel_dominant(p)
    return [
        SimplicialComponent(c.index, c.harmonic.swap_vectors(), mirrored=True)
        for c in _peel_dominant(p.swap_vectors())
    ]


def peel_full(p: Polynomial) -> DecompositionResult:
    """Bidegree split, double Fischer split, then the peel on every layer."""
    entries = [
        DecompositionEntry(layer.i, layer.j, comp)
        for part in p.bidegree_split().values()
        for layer in double_fischer(part)
        for comp in peel_double_harmonic(layer.part)
    ]
    entries.sort(key=lambda e: (e.a, e.b, e.component.index.i, e.component.index.j, e.component.mirrored))
    return DecompositionResult(p.m, p, tuple(entries))


def gen_s_x_composed(part: Polynomial) -> Polynomial:
    m = part.m
    k, _ = part.bidegree()
    den = 2 * (k + 1) + m - 4
    return skew_xu(part) - mul_normsq_x(cross_dd(part)).scaled(Fraction(1, den))


def gen_s_u_composed(part: Polynomial) -> Polynomial:
    m = part.m
    _, l = part.bidegree()
    den = 2 * (l + 1) + m - 4
    return skew_ux(part) - mul_normsq_u(cross_dd(part)).scaled(Fraction(1, den))


def gen_c_composed(part: Polynomial) -> Polynomial:
    m = part.m
    k, l = part.bidegree()
    dx = 2 * (k + 1) + m - 4
    du = 2 * (l + 1) + m - 4
    out = mul_inner_ux(part)
    out = out - mul_normsq_x(skew_ux(part)).scaled(Fraction(1, dx))
    out = out - mul_normsq_u(skew_xu(part)).scaled(Fraction(1, du))
    out = out + mul_normsq_x(mul_normsq_u(cross_dd(part))).scaled(Fraction(1, dx * du))
    return out


COMPOSED_GENERATORS = {
    GeneratorTag.S_X: gen_s_x_composed,
    GeneratorTag.S_U: gen_s_u_composed,
    GeneratorTag.A: cross_dd,
    GeneratorTag.C: gen_c_composed,
}


def generator_chain_composed(p: Polynomial, tags: Sequence[GeneratorTag]) -> Polynomial:
    """Apply the composed generators rightmost first, each to every bidegree part."""
    for tag in reversed(tags):
        total = Polynomial.zero(p.m)
        for part in p.bidegree_split().values():
            total = total + COMPOSED_GENERATORS[tag](part)
        p = total
    return p


def _pi_axis_termwise(part: Polynomial, axis: str) -> Polynomial:
    """sum_j (1/(4^j j!)) Gamma(H+2)/Gamma(H+2+j) |v|^{2j} Delta_v^j part, term by term."""
    if part.is_zero():
        return part
    k, l = part.bidegree()
    deg, lap, mul_norm = (k, laplacian_x, mul_normsq_x) if axis == "x" else (l, laplacian_u, mul_normsq_u)
    h = -(Fraction(deg) + Fraction(part.m, 2))
    total = part
    q = part
    coeff = Fraction(1)
    j = 0
    while True:
        j += 1
        q = lap(q)
        if q.is_zero():
            break
        coeff /= 4 * j * (h + 1 + j)
        total = total + chain(q, (mul_norm,) * j).scaled(coeff)
    return total


def extremal_projection_termwise(p: Polynomial, axes: str) -> Polynomial:
    """Apply the one-variable projections named by ``axes``, leftmost first, per bidegree part."""
    total = Polynomial.zero(p.m)
    for part in p.bidegree_split().values():
        for axis in axes:
            part = _pi_axis_termwise(part, axis)
        total = total + part
    return total


def stiefel_full_chain_integral(p: Polynomial) -> GaussianRational:
    """sum_i gamma_i (A^{2i} H_i)(0) per even bidegree part, A applied to all of H_i."""
    total = GaussianRational()
    for (k, l), part in p.bidegree_split().items():
        if k % 2 or l % 2:
            continue
        for i in range(min(k, l) // 2 + 1):
            layer = _pi_ij(part, k // 2 - i, l // 2 - i)
            total = total + chain(layer, (cross_dd,) * (2 * i)).constant_term() * gamma_constant(i, p.m)
    return total


def stiefel_fibration_integral(p: Polynomial) -> GaussianRational:
    """Normalized integral of p over V_2(R^m), fibred over the first vector.

    For fixed unit x, u is uniform on the unit sphere of x^perp, whose Laplacian
    is Delta_u - <x, d_u>^2.  Pizzetti's formula in n = m - 1 dimensions averages
    a part of u-degree 2h as that Laplacian applied h times, over
    2^h h! prod_{t<h} (n + 2t); odd u-degree averages to zero.  The x-polynomial
    left over is averaged over S^{m-1}: its sphere integral over the area.
    """
    m = p.m
    total = GaussianRational()
    for (_, l), part in p.bidegree_split().items():
        if l % 2:
            continue
        h = l // 2
        for _ in range(h):
            part = laplacian_u(part) - skew_xu(skew_xu(part))
        den = 2**h * factorial(h) * prod(m - 1 + 2 * t for t in range(h))
        total = total + sphere_integrate(part).coefficient * Fraction(1, den)
    return total / sphere_integrate(Polynomial.constant(m, 1)).coefficient


def a_c_power_closed_form(beta: int, m: int) -> Fraction:
    """A^{2 beta} C^{2 beta}[1] = n! (n + m/2 - 1) / (m/2 - 1) (m-2)^(n), n = 2 beta."""
    n = 2 * beta
    half_m = Fraction(m, 2)
    return factorial(n) * (n + half_m - 1) / (half_m - 1) * prod(m - 2 + t for t in range(n))


def gamma_closed_form(i: int, m: int) -> Fraction:
    """gamma_0 = 1 and gamma_i = (-1)^i / (2^{2i+1} i! (m-1)^(2i-1) (m/2+i-1)^(i+1))."""
    if i == 0:
        return Fraction(1)
    den = (
        2 ** (2 * i + 1)
        * factorial(i)
        * prod(m - 1 + t for t in range(2 * i - 1))
        * prod(Fraction(m, 2) + i - 1 + t for t in range(i + 1))
    )
    return Fraction((-1) ** i) / den


def unit_argument_product_two_term(a, b, c, n: int) -> bool:
    """4F3(-n, a+b+n, a+c, b-c; a+1, b+1, a+b+1; 1) equals the two-term 3F2
    factor times the shifted 4F3, and the factor equals eval_pfq's 3F2."""
    a, b, c = map(Fraction, (a, b, c))
    lhs = eval_pfq((-n, a + b + n, a + c, b - c), (a + 1, b + 1, a + b + 1))
    factor = 1 - (a + c) * (b - c) / ((a + n) * (b + n))
    second = eval_pfq((-n + 1, a + b + n + 1, a + c, b - c), (a + 1, b + 1, a + b + 1))
    closed_form_ok = factor == eval_pfq((-1, a + c, b - c), (a + n, b + n))
    return closed_form_ok and lhs == factor * second


def partial(p: Polynomial, axis: str, index: int) -> Polynomial:
    """Exact partial derivative of p with respect to x_index or u_index (1-based)."""
    if axis not in ("x", "u"):
        raise ValueError("axis must be 'x' or 'u'")
    if not 1 <= index <= p.m:
        raise VariableOutOfRange(f"{axis}{index} out of range for m={p.m}")
    shift = field_shift(p.m, axis, index)
    one = 1 << shift
    out = {}
    for e, (a, b) in p._terms.items():
        k = (e >> shift) & FIELD_MASK
        if not k:
            continue
        ne = e - one
        cur = out.get(ne)
        if cur is None:
            out[ne] = (a * k, b * k)
        else:
            out[ne] = (cur[0] + a * k, cur[1] + b * k)
    return Polynomial._packed(p.m, out, p._den)


def fischer_inner_product_by_differentiation(p: Polynomial, q: Polynomial) -> GaussianRational:
    """Apply conj(P)(d_x, d_u) to Q and read the constant term."""
    if p.m != q.m:
        raise DimensionMismatch("inner product of polynomials over different m")
    total = GaussianRational()
    for mono, coeff in p.terms():
        d = q
        for i, e in enumerate(mono.xexp):
            for _ in range(e):
                d = partial(d, "x", i + 1)
        for i, e in enumerate(mono.uexp):
            for _ in range(e):
                d = partial(d, "u", i + 1)
        total = total + coeff.conjugate() * d.constant_term()
    return total


def _coeff_grammar(c: GaussianRational) -> str:
    """A coefficient in the ``--poly`` grammar, which parses it back."""
    if not c.im:
        return str(c.re)
    if not c.re:
        q = c.im
        if q == 1:
            return "i"
        if q == -1:
            return "-i"
        return f"{q}*i"
    im = "i" if abs(c.im) == 1 else f"{abs(c.im)}*i"
    sign = "+" if c.im > 0 else "-"
    return f"({c.re}{sign}{im})"


def _term_text(mono, coeff: GaussianRational, first: bool) -> str:
    mono_str = str(mono)
    cs = _coeff_grammar(coeff)
    neg = cs.startswith("-") and not cs.startswith("(")
    if neg:
        cs = cs[1:]
    if mono_str == "1":
        body = cs
    elif cs == "1":
        body = mono_str
    else:
        body = f"{cs}*{mono_str}"
    if first:
        return ("-" if neg else "") + body
    return (" - " if neg else " + ") + body


def polynomial_text(p: Polynomial) -> str:
    """``str(p)``: the terms in the ``--poly`` grammar, highest first."""
    if p.is_zero():
        return "0"
    chunks = []
    for mono, coeff in reversed(list(p.terms())):
        chunks.append(_term_text(mono, coeff, first=not chunks))
    return "".join(chunks)


def decomposition_json(result: DecompositionResult, check: str) -> str:
    """The decompose command's JSON document (without the final newline)."""
    components = []
    for entry in result.entries:
        idx = entry.component.index
        harmonic_terms = [
            {"monomial": str(mono), "coeff": str(coeff)}
            for mono, coeff in entry.component.harmonic.terms()
        ]
        component = {
            "fischer": {"a": entry.a, "b": entry.b},
            "ladder": {"i": idx.i, "j": idx.j},
            "target": {"k": idx.k, "l": idx.l},
            "harmonic": harmonic_terms,
        }
        if entry.component.mirrored:
            component["mirrored"] = True
        components.append(component)
    doc = {
        "schema": "harmonic2v/1",
        "input": polynomial_text(result.source),
        "m": result.m,
        "strategy": "direct",
        "components": components,
        "reconstruction_check": check,
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def haar_frames_whole_chunk(m: int, count: int, seed: int, chunk_index: int):
    """The (count, m) arrays omega and eta of one chunk, orthonormalized at once."""
    key = (np.uint64(seed), np.uint64(chunk_index))
    rng = np.random.Generator(np.random.Philox(key=key))
    g = rng.standard_normal((count, 2, m))
    while True:
        n1 = np.linalg.norm(g[:, 0, :], axis=1)
        bad = n1 < 1e-12
        if not bad.any():
            break
        g[bad, 0, :] = rng.standard_normal((int(bad.sum()), m))
    omega = g[:, 0, :] / n1[:, None]
    v = g[:, 1, :] - (g[:, 1, :] * omega).sum(axis=1)[:, None] * omega
    while True:
        n2 = np.linalg.norm(v, axis=1)
        bad = n2 < 1e-12
        if not bad.any():
            break
        fresh = rng.standard_normal((int(bad.sum()), m))
        fresh -= (fresh * omega[bad]).sum(axis=1)[:, None] * omega[bad]
        v[bad] = fresh
    eta = v / n2[:, None]
    return omega, eta


def eval_on_frame_columns(p: Polynomial, omega, eta):
    """Real part of p on each frame, reading coordinates as array columns."""
    m = p.m
    vals = np.zeros(omega.shape[0])
    den = float(p._den)
    for key, (a, b) in p._terms.items():
        e = exponents(key, m)
        term = np.ones(omega.shape[0])
        for i in range(m):
            if e[i]:
                term = term * omega[:, i] ** e[i]
            if e[m + i]:
                term = term * eta[:, i] ** e[m + i]
        if a:
            vals += (a / den) * term
    return vals


#: Frames per Philox substream: frame t of a run is frame t mod 65,536 of chunk t // 65,536.
FRAMES_PER_CHUNK = 1 << 16


def monte_carlo_whole_chunks(polys: Sequence[Polynomial], n: int, seed: int) -> List[Tuple[float, float]]:
    """(estimate, stderr) of each polynomial's real part, chunk by chunk."""
    sums = [0.0] * len(polys)
    sqsums = [0.0] * len(polys)
    for chunk_index in range(-(-n // FRAMES_PER_CHUNK)):
        count = min(FRAMES_PER_CHUNK, n - chunk_index * FRAMES_PER_CHUNK)
        omega, eta = haar_frames_whole_chunk(polys[0].m, count, seed, chunk_index)
        for t, q in enumerate(polys):
            vals = eval_on_frame_columns(q, omega, eta)
            sums[t] += float(vals.sum())
            sqsums[t] += float((vals * vals).sum())
    out = []
    for total, sq in zip(sums, sqsums):
        mean = total / n
        out.append((mean, sqrt(max(sq / n - mean * mean, 0.0) / n)))
    return out
