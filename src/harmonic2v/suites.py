"""Machine-checkable verification suites behind the `verify` CLI command."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from typing import Dict, Iterator

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
    grid_power,
    verify_quadratic_relations,
)

SUITE_NAMES = ("relations", "ladder", "appendix", "orthogonality", "pizzetti")

#: Whipple draws the appendix suite checks, and the draws it may make to find
#: them: about 1 draw in 55 hits a Gamma or lower-parameter pole and is redrawn.
WHIPPLE_DRAWS = 10
WHIPPLE_ATTEMPTS = 2000


def _suite_relations(m: int, max_bidegree: int, rng: random.Random) -> Iterator[tuple]:
    samples = []
    for _ in range(20):
        k = rng.randint(0, max_bidegree)
        l = rng.randint(0, max_bidegree)
        samples.append(random_double_harmonic(m, k, l, rng))
    report = verify_quadratic_relations(samples)
    for name, flags in report.items():
        bad = [idx for idx, ok in enumerate(flags) if not ok]
        yield f"relation {name}", not bad, {"failing_samples": bad}


def _suite_ladder(m: int, max_bidegree: int, rng: random.Random) -> Iterator[tuple]:
    """Brute-force generator chains against the closed-form ladder constants.

    Per weight (k, l), H is checked double harmonic once; each cell
    C^i S_u^j H and each image A^p S_x^q of a cell is built once.
    """
    zero = Polynomial.zero(m)
    A, S_X, S_U, C = GeneratorTag.A, GeneratorTag.S_X, GeneratorTag.S_U, GeneratorTag.C
    for k in range(max_bidegree + 1):
        for l in range(min(k, 2) + 1):
            hw = highest_weight_vector(k, l, m)
            _check_double_harmonic(hw)
            cell = partial(grid_power, {(0, 0): hw}, outer=C, inner=S_U)
            images = {}
            for i in range(3):
                for j in range(min(2, k - l) + 1):
                    image = images[i, j] = partial(grid_power, {(0, 0): cell(i, j)}, outer=A, inner=S_X)
                    expect = cell(i, j - 1).scaled(ladder_phi(i, j, k, l, m)) if j else zero
                    yield f"phi({i},{j}) at ({k},{l})", image(0, 1) == expect
                    expect = cell(i - 1, j).scaled(ladder_psi(i, j, k, l, m)) if i else zero
                    yield f"psi({i},{j}) at ({k},{l})", image(1, 0) == expect
                    for p in range(i + 1):
                        for q in range(j + 1):
                            expect = cell(i - p, j - q).scaled(ladder_alpha(i, j, p, q, k, l, m))
                            yield f"alpha({i},{j})^({p},{q}) at ({k},{l})", image(p, q) == expect
            for i in range(1, 3):
                expect = cell(i - 1, 0).scaled(ladder_c(i, k, l, m))
                yield f"c_{i} at ({k},{l})", images[i, 0](1, 0) == expect


def _suite_appendix(m: int, max_bidegree: int, rng: random.Random) -> Iterator[tuple]:
    for k in range(max_bidegree + 1):
        for l in range(k + 1):
            for i in range(l + 1):
                for j in range(l - i + 1):
                    if 1 <= i + j <= 3:
                        yield f"G({k},{l}) cell ({i},{j})", verify_g_vanishes(k, l, i, j, m)
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
        yield f"whipple draw {done}", ok
        done += 1
        if done == WHIPPLE_DRAWS:
            break
    else:
        yield "whipple draws", False, {"checked": done, "attempts": WHIPPLE_ATTEMPTS}
    for t in range(10):
        a = Fraction(rng.randint(1, 6), rng.choice((1, 2)))
        b = Fraction(rng.randint(1, 6), rng.choice((1, 2)))
        c = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
        n = rng.randint(1, 3)
        z = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        yield f"product transformation draw {t}", verify_product_transformation(a, b, c, n, z)
        yield f"unit-argument product draw {t}", verify_unit_argument_product(a, b, c, n)


def _suite_orthogonality(m: int, max_bidegree: int, rng: random.Random) -> Iterator[tuple]:
    for t in range(3):
        k = rng.randint(0, max_bidegree)
        l = rng.randint(0, max_bidegree)
        p = random_bihomogeneous(m, k, l, rng)
        result = decompose_full(p)
        report = verify_component_orthogonality(result)
        failures = {"failures": report["failures"]}
        yield f"pairwise orthogonality of P_({k},{l}) draw {t}", report["passed"], failures
        yield f"reconstruction of P_({k},{l}) draw {t}", result.is_exact()


def _suite_pizzetti(m: int, max_bidegree: int, rng: random.Random) -> Iterator[tuple]:
    one = Polynomial.constant(m, 1)
    yield "normalization I(1) = 1", stiefel_integrate(one).pizzetti_value == 1
    for i in range(4):
        g = gamma_constant(i, m)
        yield f"gamma_{i} sign", (g > 0) == (i % 2 == 0) and g != 0
    for t in range(20):
        k = rng.randint(0, max_bidegree)
        l = rng.randint(0, max_bidegree)
        p = random_bihomogeneous(m, k, l, rng, complex_coeff=False)
        base = stiefel_integrate(p).pizzetti_value
        yield f"I(|x|^2 p) = I(p), draw {t}", stiefel_integrate(mul_normsq_x(p)).pizzetti_value == base
        yield f"I(<u,x> p) = 0, draw {t}", stiefel_integrate(mul_inner_ux(p)).pizzetti_value.is_zero()


# Each suite takes (m, max_bidegree, rng) and yields its checks in order, each
# as (name, passed) or (name, passed, counterexample); run_suite reports them.
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
    checks = []
    for check, passed, *counterexample in _SUITES[name](m, max_bidegree, random.Random(seed)):
        checks.append({"name": check, "passed": bool(passed)})
        if counterexample and not passed:
            checks[-1]["counterexample"] = counterexample[0]
    return {
        "suite": name,
        "m": m,
        "max_bidegree": max_bidegree,
        "seed": seed,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
