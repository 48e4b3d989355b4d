"""Machine-checkable verification suites behind the `verify` CLI command."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from typing import Dict, List

from .errors import GammaPole, LowerParameterPole
from .decomp import (
    decompose_full,
    highest_weight_vector,
    ladder_alpha,
    ladder_c,
    ladder_phi,
    ladder_psi,
    verify_component_orthogonality,
)
from .hypergeom import verify_unit_argument_product, verify_g_vanishes, verify_product_transformation, verify_whipple
from .operators import mul_inner_ux, mul_normsq_x
from .poly import Polynomial
from .sampling import random_bihomogeneous, random_double_harmonic
from .stiefel import gamma_constant, stiefel_integrate
from .transvector import (
    GeneratorTag,
    _check_double_harmonic,
    _require_theory_dimension,
    chain,
    verify_quadratic_relations,
)

SUITE_NAMES = ("relations", "ladder", "appendix", "orthogonality", "pizzetti")

#: Whipple draws the appendix suite checks, and the draws it may make to find
#: them: about 1 draw in 55 hits a Gamma or lower-parameter pole and is redrawn.
WHIPPLE_DRAWS = 10
WHIPPLE_ATTEMPTS = 2000


def _check(checks: List[dict], name: str, passed: bool, detail=None):
    entry: Dict[str, object] = {"name": name, "passed": bool(passed)}
    if detail is not None and not passed:
        entry["counterexample"] = detail
    checks.append(entry)


def _suite_relations(m: int, max_bidegree: int, seed: int) -> List[dict]:
    rng = random.Random(seed)
    checks: List[dict] = []
    samples = []
    for _ in range(20):
        k = rng.randint(0, max(max_bidegree, 1))
        l = rng.randint(0, max(max_bidegree, 1))
        samples.append(random_double_harmonic(m, k, l, rng))
    report = verify_quadratic_relations(samples)
    for name, flags in report.items():
        bad = [idx for idx, ok in enumerate(flags) if not ok]
        _check(checks, f"relation {name}", not bad, {"failing_samples": bad})
    return checks


def _power(built: dict, p: int, q: int, outer: GeneratorTag, inner: GeneratorTag) -> Polynomial:
    """outer^p inner^q of built[0, 0], kept in built: each power is made once,
    by one unchecked step from a smaller one (inner steps first, then outer)."""
    if (p, q) not in built:
        prev, tag = ((p - 1, q), outer) if p else ((0, q - 1), inner)
        built[p, q] = chain(_power(built, *prev, outer, inner), (tag,))
    return built[p, q]


def _suite_ladder(m: int, max_bidegree: int, seed: int) -> List[dict]:
    """Brute-force generator chains against the closed-form ladder constants.

    Per weight (k, l), H is checked double harmonic once; each cell
    C^i S_u^j H and each image A^p S_x^q of a cell is built once.
    """
    checks: List[dict] = []
    zero = Polynomial.zero(m)
    A, S_X, S_U, C = GeneratorTag.A, GeneratorTag.S_X, GeneratorTag.S_U, GeneratorTag.C
    for k in range(min(max_bidegree, 3) + 1):
        for l in range(min(k, 2) + 1):
            hw = highest_weight_vector(k, l, m)
            _check_double_harmonic(hw)
            cell = partial(_power, {(0, 0): hw}, outer=C, inner=S_U)
            images = {}
            for i in range(3):
                for j in range(min(2, k - l) + 1):
                    image = images[i, j] = partial(_power, {(0, 0): cell(i, j)}, outer=A, inner=S_X)
                    expect = cell(i, j - 1).scaled(ladder_phi(i, j, k, l, m)) if j else zero
                    _check(checks, f"phi({i},{j}) at ({k},{l})", image(0, 1) == expect)
                    expect = cell(i - 1, j).scaled(ladder_psi(i, j, k, l, m)) if i else zero
                    _check(checks, f"psi({i},{j}) at ({k},{l})", image(1, 0) == expect)
                    for p in range(i + 1):
                        for q in range(j + 1):
                            expect = cell(i - p, j - q).scaled(ladder_alpha(i, j, p, q, k, l, m))
                            _check(checks, f"alpha({i},{j})^({p},{q}) at ({k},{l})", image(p, q) == expect)
            for i in range(1, 3):
                expect = cell(i - 1, 0).scaled(ladder_c(i, k, l, m))
                _check(checks, f"c_{i} at ({k},{l})", images[i, 0](1, 0) == expect)
    return checks


def _suite_appendix(m: int, max_bidegree: int, seed: int) -> List[dict]:
    rng = random.Random(seed)
    checks: List[dict] = []
    top_k = max(max_bidegree, 1)
    for k in range(top_k + 1):
        for l in range(min(k, top_k) + 1):
            for i in range(l + 1):
                for j in range(l - i + 1):
                    if not 1 <= i + j <= 3:
                        continue
                    _check(
                        checks,
                        f"G({k},{l}) cell ({i},{j})",
                        verify_g_vanishes(k, l, i, j, m),
                    )
    done = 0
    for _ in range(WHIPPLE_ATTEMPTS):
        a, b = Fraction(rng.randint(1, 5), 2), Fraction(rng.randint(1, 5), 2)
        z, n = rng.randint(0, 3), rng.randint(0, 3)
        u = Fraction(rng.randint(3, 9), 2)
        v = Fraction(rng.randint(3, 9), 2)
        w = a + b - z - n + 1 - u - v
        try:
            ok = verify_whipple(a, b, z, n, u, v, w)
        except (GammaPole, LowerParameterPole):
            continue  # a pole shape is redrawn, never counted
        _check(checks, f"whipple draw {done}", ok)
        done += 1
        if done == WHIPPLE_DRAWS:
            break
    else:
        _check(checks, "whipple draws", False, {"checked": done, "attempts": WHIPPLE_ATTEMPTS})
    for t in range(10):
        a = Fraction(rng.randint(1, 6), rng.choice((1, 2)))
        b = Fraction(rng.randint(1, 6), rng.choice((1, 2)))
        c = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        n = rng.randint(1, 3)
        z = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        _check(checks, f"product transformation draw {t}", verify_product_transformation(a, b, c, n, z))
        _check(checks, f"unit-argument product draw {t}", verify_unit_argument_product(a, b, c, n))
    return checks


def _suite_orthogonality(m: int, max_bidegree: int, seed: int) -> List[dict]:
    rng = random.Random(seed)
    checks: List[dict] = []
    for t in range(3):
        k = rng.randint(0, max_bidegree)
        l = rng.randint(0, max_bidegree)
        p = random_bihomogeneous(m, k, l, rng)
        result = decompose_full(p)
        report = verify_component_orthogonality(result)
        _check(
            checks,
            f"pairwise orthogonality of P_({k},{l}) draw {t}",
            report["passed"],
            {"failures": report["failures"]},
        )
        _check(checks, f"reconstruction of P_({k},{l}) draw {t}", result.is_exact())
    return checks


def _suite_pizzetti(m: int, max_bidegree: int, seed: int) -> List[dict]:
    rng = random.Random(seed)
    checks: List[dict] = []
    one = Polynomial.constant(m, 1)
    _check(checks, "normalization I(1) = 1", stiefel_integrate(one).pizzetti_value == 1)
    for i in range(4):
        g = gamma_constant(i, m)
        _check(checks, f"gamma_{i} sign", (g > 0) == (i % 2 == 0) and g != 0)
    for t in range(20):
        k = rng.randint(0, max_bidegree)
        l = rng.randint(0, max_bidegree)
        p = random_bihomogeneous(m, k, l, rng, complex_coeff=False)
        base = stiefel_integrate(p).pizzetti_value
        _check(
            checks,
            f"I(|x|^2 p) = I(p), draw {t}",
            stiefel_integrate(mul_normsq_x(p)).pizzetti_value == base,
        )
        _check(
            checks,
            f"I(<u,x> p) = 0, draw {t}",
            stiefel_integrate(mul_inner_ux(p)).pizzetti_value.is_zero(),
        )
    return checks


_SUITES = {
    "relations": _suite_relations,
    "ladder": _suite_ladder,
    "appendix": _suite_appendix,
    "orthogonality": _suite_orthogonality,
    "pizzetti": _suite_pizzetti,
}


def run_suite(name: str, m: int, max_bidegree: int = 3, seed: int = 0) -> Dict[str, object]:
    """Run one named verification suite and return a JSON-ready report."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if seed < 0:  # random.Random would seed with |seed|
        raise ValueError(f"seed must be non-negative, got {seed}")
    # Below m = 5 the samplers may never end and the ladder sums divide by zero.
    _require_theory_dimension(m)
    checks = _SUITES[name](m, max_bidegree, seed)
    return {
        "suite": name,
        "m": m,
        "max_bidegree": max_bidegree,
        "seed": seed,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
