"""Tests of the benchmark's tracing and of its catalogue.

    python3 -m pytest perfbench -q

Each test drives one small input per workload through the same code the
benchmark runs.
"""

import cProfile
import json
import os
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harmonic2v  # noqa: E402,F401  (loads every library module the tracer scans)
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: Layers that the small input of each workload must reach, so that the
#: coverage comparison below cannot pass by counting nothing.
REACHED = {
    "decompose_deep": {
        "poly.add", "poly.scaled", "poly.split", "operators.laplacian_x", "operators.laplacian_u",
        "operators.normsq_x", "operators.normsq_u", "operators.inner_ux", "operators.cross_dd",
        "operators.skew_ux", "operators.skew_xu", "transvector.gen.S_x", "transvector.gen.S_u",
        "transvector.gen.A", "transvector.gen.C", "transvector.projection_s", "transvector.check",
        "fischer.double_fischer", "fischer.pi_ij", "decomp.cell", "decomp.master", "decomp.embed",
        "decomp.reconstruct", "parser.parse", "cli",
    },
    "decompose_small": {
        "poly.add", "poly.split", "operators.cross_dd", "transvector.gen.A", "transvector.check",
        "fischer.double_fischer", "fischer.pi_ij", "decomp.cell", "decomp.master", "decomp.embed",
        "decomp.reconstruct",
    },
    "integrate_stiefel": {
        "poly.add", "poly.scaled", "poly.split", "operators.laplacian_x", "operators.laplacian_u",
        "operators.cross_dd", "transvector.projection_s", "fischer.pi_ij", "stiefel.exact",
        "stiefel.mc", "parser.parse", "cli",
    },
}


def tiny(name):
    cls = workloads.WORKLOADS[name]
    return cls(0, **cls.TINY)


def run_items(workload, tracer=None):
    for index, item in enumerate(workload.items):
        if tracer is not None:
            tracer.request = index
        assert workload.check(item, workload.call(item))


def profiled_calls(workload) -> dict:
    """ncalls that cProfile reports for each traced layer's original function."""
    profile = cProfile.Profile()
    profile.enable()
    run_items(workload)
    profile.disable()
    stats = pstats.Stats(profile).stats
    out = {}
    for spec in layers.LAYERS:
        fn = layers.resolve(spec.target)
        code = fn.__code__
        entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        if spec.target == layers.GEN_A_TARGET:
            # A is cross_dd reached through the generator dispatch.
            callers = entry[4] if entry else {}
            out[spec.name] = sum(
                v[1] for (_f, _l, caller), v in callers.items()
                if caller in ("_apply_generator_unchecked", "_per_part")
            )
        else:
            out[spec.name] = entry[1] if entry else 0
    return out


def traced(workload) -> layers.Tracer:
    tracer = layers.Tracer()
    with tracer:
        run_items(workload, tracer)
    return tracer


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_calls_match_cprofile(name):
    expected = profiled_calls(tiny(name))
    got = traced(tiny(name)).layer_calls()
    assert got == expected
    assert {layer for layer, n in got.items() if n} >= REACHED[name]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat(name):
    first = layers.count_metrics(traced(tiny(name)).aggregate())
    second = layers.count_metrics(traced(tiny(name)).aggregate())
    assert first == second
    assert first["poly.terms_peak"] > 0


def test_uninstall_restores_every_binding():
    from harmonic2v import decomp, poly, stiefel, transvector

    def bindings():
        return (
            transvector.cross_dd,
            decomp.cross_dd,
            stiefel.cross_dd,
            transvector._GEN_FUNC[transvector.GeneratorTag.A],
            poly.Polynomial.__dict__["__add__"],
            poly.Polynomial.__dict__["__rmul__"],
        )

    before = bindings()
    with layers.Tracer():
        during = bindings()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, bindings()))


def test_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.metric_catalog()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_fails_without_the_library():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "decompose_small", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
