"""Layer tracing from outside the library.

Every traced entry point is replaced, for the length of one traced pass, by a
wrapper that records a span (layer, start, end, parent, request, size in,
size out).  Functions are imported by name into other modules (``cross_dd``
lives in ``operators`` but is called through ``transvector``, ``decomp`` and
``stiefel``) and stored in dispatch tables (``transvector._GEN_FUNC``), so
``Tracer.install`` replaces every binding of the original function object it
finds in the ``harmonic2v`` modules, their classes and their module-level
dicts.  ``test_perfbench.py`` checks the resulting call counts against
``cProfile``.

Spans are kept in memory and aggregated after the pass; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


def _terms(p) -> int:
    return len(p._terms)


def _first_terms(args) -> int:
    return len(args[0]._terms)


def _nonzero_harmonic(component) -> int:
    return 1 if component.harmonic._terms else 0


@dataclass(frozen=True)
class LayerSpec:
    """One traced entry point.

    ``target`` is ``module:qualname``.  ``size_in`` maps the call's positional
    arguments to a count (terms or characters in); ``size_out`` maps the result
    to a count (terms out, nonzero flag, layers found).
    """

    name: str
    target: str
    size_in: Optional[Callable] = None
    size_out: Optional[Callable] = None
    metrics: Tuple[str, ...] = ("calls", "self_s")


_ATOMS = (
    ("laplacian_x", "laplacian_x"),
    ("laplacian_u", "laplacian_u"),
    ("normsq_x", "mul_normsq_x"),
    ("normsq_u", "mul_normsq_u"),
    ("inner_ux", "mul_inner_ux"),
    ("cross_dd", "cross_dd"),
    ("skew_ux", "skew_ux"),
    ("skew_xu", "skew_xu"),
)

#: Generator A is ``cross_dd`` itself; it is traced where the dispatch table
#: ``_GEN_FUNC`` holds it, so that direct ``cross_dd`` calls stay atom-only.
GEN_A_TARGET = "harmonic2v.transvector:_GEN_FUNC[A]"

LAYERS: Tuple[LayerSpec, ...] = (
    LayerSpec("poly.add", "harmonic2v.poly:Polynomial.__add__", size_out=_terms),
    LayerSpec("poly.mul", "harmonic2v.poly:Polynomial.__mul__", size_out=_terms),
    LayerSpec("poly.scaled", "harmonic2v.poly:Polynomial.scaled", size_out=_terms),
    LayerSpec("poly.split", "harmonic2v.poly:Polynomial.bidegree_split"),
    *(
        LayerSpec(
            f"operators.{name}",
            f"harmonic2v.operators:{func}",
            size_in=_first_terms,
            size_out=_terms,
            metrics=("calls", "terms_in", "self_s"),
        )
        for name, func in _ATOMS
    ),
    *(
        LayerSpec(
            f"transvector.gen.{tag}",
            target,
            size_in=_first_terms,
            size_out=_terms,
            metrics=("calls", "terms_in", "self_s"),
        )
        for tag, target in (
            ("S_x", "harmonic2v.transvector:_gen_s_x"),
            ("S_u", "harmonic2v.transvector:_gen_s_u"),
            ("A", GEN_A_TARGET),
            ("C", "harmonic2v.transvector:_gen_c"),
        )
    ),
    LayerSpec("transvector.projection_s", "harmonic2v.transvector:extremal_projection_s", size_out=_terms),
    LayerSpec("transvector.check", "harmonic2v.transvector:is_double_harmonic"),
    LayerSpec("fischer.double_fischer", "harmonic2v.fischer:double_fischer", size_out=len),
    LayerSpec(
        "fischer.pi_ij",
        "harmonic2v.fischer:_pi_ij",
        size_out=_terms,
        metrics=("calls", "self_s", "layers_nonzero_ratio"),
    ),
    LayerSpec(
        "decomp.cell",
        "harmonic2v.decomp:project_component",
        size_out=_nonzero_harmonic,
        metrics=("calls", "self_s", "cells_nonzero_ratio"),
    ),
    LayerSpec("decomp.master", "harmonic2v.decomp:_master_projection_dominant", size_out=_terms),
    LayerSpec("decomp.embed", "harmonic2v.decomp:DecompositionEntry.embedded", size_out=_terms),
    LayerSpec(
        "decomp.reconstruct",
        "harmonic2v.decomp:DecompositionResult.reconstruct",
        size_out=_terms,
        metrics=("self_s",),
    ),
    LayerSpec("stiefel.exact", "harmonic2v.stiefel:_stiefel_exact_part"),
    LayerSpec(
        "stiefel.mc",
        "harmonic2v.stiefel:stiefel_monte_carlo",
        size_in=lambda args: args[1],
        metrics=("self_s", "frames", "frames_per_s"),
    ),
    LayerSpec(
        "parser.parse",
        "harmonic2v.parser:parse_poly",
        size_in=lambda args: len(args[0]),
        size_out=_terms,
        metrics=("calls", "self_s", "chars"),
    ),
    LayerSpec("cli", "harmonic2v.cli:main", metrics=("self_s",)),
)

#: Metrics that are not per-layer spans: peak term count over every traced
#: result, stdout bytes the benchmark captured from the CLI, and the tracing
#: overhead (traced minus untraced wall time of the same pass).
EXTRA_METRICS = (
    ("poly.terms_peak", "count", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

_UNITS = {
    "calls": ("count", "lower"),
    "terms_in": ("count", "lower"),
    "self_s": ("s", "lower"),
    "layers_nonzero_ratio": ("ratio", "higher"),
    "cells_nonzero_ratio": ("ratio", "higher"),
    "frames": ("count", "lower"),
    "frames_per_s": ("1/s", "higher"),
    "chars": ("count", "lower"),
}


def _metric_name(layer: str, metric: str) -> str:
    # The nonzero ratios are named after their layer's module, not the span.
    if metric.endswith("_nonzero_ratio"):
        return f"{layer.split('.')[0]}.{metric}"
    return f"{layer}.{metric}"


def metric_catalog() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for spec in LAYERS:
        for metric in spec.metrics:
            unit, better = _UNITS[metric]
            out.append((_metric_name(spec.name, metric), unit, better))
    out.extend(EXTRA_METRICS)
    return out


def _gen_table():
    transvector = importlib.import_module("harmonic2v.transvector")
    return transvector._GEN_FUNC, transvector.GeneratorTag.A


def resolve(target: str):
    """The function a target names, as currently bound."""
    if target == GEN_A_TARGET:
        table, key = _gen_table()
        return table[key]
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner.__dict__[parts[-1]]


def _library_modules():
    return [mod for name, mod in sorted(sys.modules.items()) if name == "harmonic2v" or name.startswith("harmonic2v.")]


# Span record fields: layer index, start, end, parent span, request, size in, size out.
Span = Tuple[int, float, float, int, int, int, int]


class Tracer:
    """Installs span-recording wrappers and aggregates one pass of spans."""

    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = [-1]
        #: Index of the input being processed; the benchmark sets it per input.
        self.request = -1
        self._restore: List[Tuple[object, object, object]] = []

    # -- install / uninstall -------------------------------------------------

    def _wrap(self, index: int, spec: LayerSpec, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        size_in = spec.size_in
        size_out = spec.size_out
        tracer = self

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            n_in = size_in(args) if size_in is not None else -1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (index, t0, clock(), parent, tracer.request, n_in, -1)
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            n_out = size_out(result) if size_out is not None else -1
            spans[sid] = (index, t0, t1, parent, tracer.request, n_in, n_out)
            return result

        return traced

    def _rebind(self, original, replacement):
        """Point every library binding of ``original`` at ``replacement``."""
        for module in _library_modules():
            containers = [module.__dict__]
            for name, value in list(module.__dict__.items()):
                if name.startswith("__"):
                    continue
                if isinstance(value, type) and value.__module__ == module.__name__:
                    containers.append(value)
                elif isinstance(value, dict):
                    containers.append(value)
            for container in containers:
                items = container.__dict__ if isinstance(container, type) else container
                for key, value in list(items.items()):
                    if value is original:
                        self._set(container, key, replacement)

    def _set(self, container, key, value):
        if isinstance(container, type):
            self._restore.append((container, key, container.__dict__[key]))
            setattr(container, key, value)
        else:
            self._restore.append((container, key, container[key]))
            container[key] = value

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        gen_a = None
        for index, spec in enumerate(LAYERS):
            if spec.target == GEN_A_TARGET:
                gen_a = (index, spec)
                continue
            original = resolve(spec.target)
            self._rebind(original, self._wrap(index, spec, original))
        # After the atoms are wrapped the table holds the traced cross_dd; the
        # generator span goes around it.
        index, spec = gen_a
        table, key = _gen_table()
        self._set(table, key, self._wrap(index, spec, table[key]))

    def uninstall(self):
        while self._restore:
            container, key, value = self._restore.pop()
            if isinstance(container, type):
                setattr(container, key, value)
            else:
                container[key] = value

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation ---------------------------------------------------------------

    def aggregate(self) -> Dict[str, float]:
        """Per-layer counts and self times of every span recorded so far."""
        n = len(LAYERS)
        calls = [0] * n
        size_in = [0] * n
        nonzero = [0] * n
        duration = [0.0] * n
        self_s = [0.0] * n
        peak = 0
        spans = self.spans
        for layer, t0, t1, parent, _request, n_in, n_out in spans:
            dur = t1 - t0
            calls[layer] += 1
            duration[layer] += dur
            self_s[layer] += dur
            if parent >= 0:
                self_s[spans[parent][0]] -= dur
            if n_in > 0:
                size_in[layer] += n_in
            if n_out > 0:
                nonzero[layer] += 1
                if LAYERS[layer].size_out is _terms:
                    peak = max(peak, n_out)
        out: Dict[str, float] = {}
        for index, spec in enumerate(LAYERS):
            for metric in spec.metrics:
                name = _metric_name(spec.name, metric)
                if metric == "calls":
                    out[name] = calls[index]
                elif metric in ("terms_in", "frames", "chars"):
                    out[name] = size_in[index]
                elif metric == "self_s":
                    out[name] = self_s[index]
                elif metric.endswith("_nonzero_ratio"):
                    out[name] = nonzero[index] / calls[index] if calls[index] else 0.0
                elif metric == "frames_per_s":
                    out[name] = size_in[index] / duration[index] if duration[index] else 0.0
        out["poly.terms_peak"] = peak
        return out

    def layer_calls(self) -> Dict[str, int]:
        """Spans recorded per layer, including layers whose calls are not reported."""
        calls = dict.fromkeys((spec.name for spec in LAYERS), 0)
        for span in self.spans:
            calls[LAYERS[span[0]].name] += 1
        return calls

    def write(self, path):
        """Write the spans as tab-separated rows, one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\trequest\tlayer\tstart_s\tend_s\tsize_in\tsize_out\n")
            for sid, (layer, t0, t1, parent, req, n_in, n_out) in enumerate(self.spans):
                fh.write(f"{sid}\t{parent}\t{req}\t{LAYERS[layer].name}\t{t0:.9f}\t{t1:.9f}\t{n_in}\t{n_out}\n")


def count_metrics(values: Dict[str, float]) -> Dict[str, float]:
    """The machine-independent subset: counts, sizes and ratios (no times)."""
    return {k: v for k, v in values.items() if not k.endswith("_s")}
