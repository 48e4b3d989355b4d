"""The benchmark's workloads: input generation, the timed call, output checks.

Inputs come from the benchmark's own ``random.Random(seed)``; the library sees
only the generated inputs.  Each workload exposes ``items`` (one pass, issued
in order by a single caller, each after the previous one completes), ``call``
(the timed work for one item), ``check`` (whether the output is right) and
``digest_bytes`` (the bytes that the default-seed digest covers).

The library is looked up through module attributes at call time
(``cli.main``, ``decomp.decompose_full``) so that the tracer's wrappers are
seen during a traced pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from typing import List, Sequence, Tuple

#: A Monte Carlo estimate fails its check when it lies more than this many
#: standard errors from the exact value.  At 200k frames the estimate is close
#: to normal, so a correct library misses a bound this wide with probability
#: about 2e-9 per input.
MC_Z_BOUND = 6.0


def _random_exponents(rng: random.Random, m: int, degree: int, step: int = 1) -> List[int]:
    exps = [0] * m
    for _ in range(degree // step):
        exps[rng.randrange(m)] += step
    return exps


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def _monomial_text(xexp: Sequence[int], uexp: Sequence[int]) -> str:
    parts = []
    for name, exps in (("x", xexp), ("u", uexp)):
        for i, e in enumerate(exps):
            if e == 1:
                parts.append(f"{name}{i + 1}")
            elif e > 1:
                parts.append(f"{name}{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def _coefficient_text(re: Fraction, im: Fraction) -> str:
    if not im:
        return f"({re})"
    sign = "-" if im < 0 else "+"
    return f"({re}{sign}{abs(im)}*i)"


def _polynomial_text(terms) -> str:
    return " + ".join(f"{_coefficient_text(re, im)}*{_monomial_text(xe, ue)}" for xe, ue, re, im in terms)


def _templated_terms(template_rng, rng, m, k, l, terms, step=1, complex_share=0.4):
    """Terms with a monomial pattern drawn from ``template_rng`` and
    coordinates and coefficients drawn from ``rng``.

    The pattern (exponents, and which coefficients are complex) depends only
    on the template generator.  The run's generator picks one permutation of
    the m coordinates, applied to x and u alike, and the coefficients.  Every
    operator the library applies commutes with that relabelling, so the work
    per input is the same at every seed, apart from coefficients that happen
    to cancel, while every output changes.
    """
    pattern = [
        (
            _random_exponents(template_rng, m, k, step),
            _random_exponents(template_rng, m, l, step),
            template_rng.random() < complex_share,
        )
        for _ in range(terms)
    ]
    perm = list(range(m))
    rng.shuffle(perm)
    out = []
    for xe, ue, complex_coeff in pattern:
        re = _random_fraction(rng)
        im = _random_fraction(rng) if complex_coeff else Fraction(0)
        out.append(([xe[perm[i]] for i in range(m)], [ue[perm[i]] for i in range(m)], re, im))
    return out


def _capture_cli(argv: List[str]):
    from harmonic2v import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class DecomposeDeep:
    """A fixed handful of large inputs through ``harmonic2v decompose``.

    Monomial patterns are fixed per shape by ``TEMPLATE_SEED`` (see
    ``_templated_terms``): with fully random 3-term inputs the same shape
    took 1.0-2.4 s from seed to seed.
    """

    name = "decompose_deep"
    #: (x-degree, u-degree, m); (4, 6) is u-dominant and takes the mirrored path.
    SHAPES = ((5, 5, 5), (6, 4, 6), (4, 6, 7))
    TERMS = 3
    TEMPLATE_SEED = 0
    #: One small u-dominant input: the warm-up and the tracing tests use it.
    TINY = {"shapes": ((2, 3, 5),)}

    def __init__(self, seed: int, shapes=SHAPES):
        rng = random.Random(seed)
        template_rng = random.Random(self.TEMPLATE_SEED)
        #: Each item is the CLI's argument vector.
        self.items: List[Tuple[str, ...]] = []
        for k, l, m in shapes:
            text = _polynomial_text(_templated_terms(template_rng, rng, m, k, l, self.TERMS))
            self.items.append(("decompose", "--m", str(m), "--poly", text))

    def call(self, item):
        return _capture_cli(list(item))

    def check(self, item, output) -> bool:
        code, out = output
        if code != 0:
            return False
        doc = json.loads(out)
        return doc.get("reconstruction_check") == "exact" and bool(doc.get("components"))

    def digest_bytes(self, item, output) -> bytes:
        return output[1].encode("utf-8")

    def stdout_bytes(self, output) -> int:
        return len(output[1].encode("utf-8"))


class DecomposeSmall:
    """Many small inputs through ``decompose_full(p).is_exact()``.

    One pass covers every (x-degree, u-degree, m) with degrees 0..3 and
    m in {5, 6, 7}, ``PER_SHAPE`` 3-term inputs each, in an order shuffled by
    the seed.  Monomial patterns are fixed by ``TEMPLATE_SEED`` as in
    ``DecomposeDeep``: with fully random inputs the pass's median and
    throughput moved by 10% from seed to seed.  Polynomial construction is
    part of the timed call.
    """

    name = "decompose_small"
    DEGREES = range(4)
    DIMENSIONS = (5, 6, 7)
    PER_SHAPE = 12
    TERMS = 3
    TEMPLATE_SEED = 0
    TINY = {"shapes": ((3, 2, 5),), "per_shape": 1}

    def __init__(self, seed: int, shapes=None, per_shape: int = PER_SHAPE):
        from harmonic2v.poly import Monomial
        from harmonic2v.rationals import GaussianRational

        rng = random.Random(seed)
        template_rng = random.Random(self.TEMPLATE_SEED)
        if shapes is None:
            shapes = [(k, l, m) for m in self.DIMENSIONS for k in self.DEGREES for l in self.DEGREES]
        #: Each item is (m, {Monomial: GaussianRational}).
        self.items: List[Tuple[int, dict]] = []
        for k, l, m in shapes:
            for _ in range(per_shape):
                data = {
                    Monomial(tuple(xe), tuple(ue)): GaussianRational(re, im)
                    for xe, ue, re, im in _templated_terms(template_rng, rng, m, k, l, self.TERMS)
                }
                self.items.append((m, data))
        rng.shuffle(self.items)

    def call(self, item):
        from harmonic2v import decomp, poly

        m, data = item
        result = decomp.decompose_full(poly.Polynomial(m, data))
        return result, result.is_exact()

    def check(self, item, output) -> bool:
        return output[1] is True

    def digest_bytes(self, item, output) -> bytes:
        result = output[0]
        rows = []
        for entry in result.entries:
            idx = entry.component.index
            label = f"{entry.a},{entry.b},{idx.i},{idx.j},{idx.k},{idx.l},{int(entry.component.mirrored)}"
            terms = ";".join(f"{mono}={coeff}" for mono, coeff in entry.component.harmonic.terms())
            rows.append(f"{label}:{terms}")
        return ("\n".join(rows) + "\n--\n").encode("utf-8")

    def stdout_bytes(self, output) -> int:
        return 0


class IntegrateStiefel:
    """Tens of high even-bidegree inputs through ``harmonic2v integrate``.

    Every monomial has even exponents and a real coefficient, so the exact
    value is a nonzero rational that the Monte Carlo estimate can miss.  The
    exact path lowers degrees (Laplacians, extremal projections, repeated
    ``cross_dd``) and never reaches the generators or ``decomp``.  Monomial
    patterns are fixed by ``TEMPLATE_SEED`` as in ``DecomposeDeep``; the
    integral is invariant under the relabelling as well.
    """

    name = "integrate_stiefel"
    SHAPES = ((10, 10, 5), (8, 8, 6), (6, 6, 8), (10, 6, 7), (6, 10, 6), (8, 4, 8), (4, 8, 5), (8, 10, 5))
    TERMS = 3
    TEMPLATE_SEED = 0
    MC_SAMPLES = 200_000
    TINY = {"shapes": ((4, 4, 5),), "mc_samples": 2000}

    def __init__(self, seed: int, shapes=SHAPES, mc_samples: int = MC_SAMPLES):
        rng = random.Random(seed)
        template_rng = random.Random(self.TEMPLATE_SEED)
        #: Each item is the CLI's argument vector.
        self.items: List[Tuple[str, ...]] = []
        for k, l, m in shapes:
            terms = _templated_terms(template_rng, rng, m, k, l, self.TERMS, step=2, complex_share=0.0)
            text = _polynomial_text(terms)
            mc_seed = rng.randrange(2**31)
            self.items.append(
                ("integrate", "--m", str(m), "--poly", text, "--mc-samples", str(mc_samples), "--seed", str(mc_seed))
            )

    def call(self, item):
        return _capture_cli(list(item))

    def check(self, item, output) -> bool:
        code, out = output
        if code != 0:
            return False
        doc = json.loads(out)
        try:
            exact = float(Fraction(doc["value"]))
        except ValueError:
            return False
        mc = doc.get("mc")
        if not mc:
            return False
        if mc["stderr"] == 0:
            return mc["estimate"] == exact
        return abs(mc["estimate"] - exact) <= MC_Z_BOUND * mc["stderr"]

    def digest_bytes(self, item, output) -> bytes:
        return output[1].encode("utf-8")

    def stdout_bytes(self, output) -> int:
        return len(output[1].encode("utf-8"))


WORKLOADS = {w.name: w for w in (DecomposeDeep, DecomposeSmall, IntegrateStiefel)}
