"""harmonic2v benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  One process issues each input only after the previous one
completes, and numpy is held to one thread, so the run uses at most two
threads of the host.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
``SETUP_PROBES`` fresh interpreters, each timed from spawn until it has
imported the library, generated the inputs and warmed up), inputs per second
of library time (median over passes), median latency over the timed phase,
and peak resident memory.
``--trace 1`` measures the per-layer metrics: it alternates an untraced and a
traced pass over the same inputs, reports counts from the traced passes,
self times as medians over them and the tracing overhead as traced minus
untraced wall time, and writes the spans of the last traced pass under
``.bench_out/``.

Every output is checked; a failed or raising input counts in ``failed``.  At
the default seed the outputs of the first pass are also hashed and compared
with ``digests.json``.  The last stdout line is the JSON result.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Before numpy is imported: the Monte Carlo path must not start BLAS threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

DEFAULT_SEED = 0
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
#: Tail percentiles tried from the top; the first with at least
#: ``TAIL_MIN_BEYOND`` samples above it is reported.
TAIL_LADDER = (99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10
END_TO_END = (
    ("setup_s", "s"),
    ("inputs_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)


class SetupError(Exception):
    """The library or the benchmark's inputs could not be set up."""


def import_library():
    try:
        import harmonic2v
    except ImportError as exc:
        raise SetupError(f"cannot import harmonic2v from {ROOT / 'src'}: {exc}") from exc
    src = (ROOT / "src").resolve()
    if src not in Path(harmonic2v.__file__).resolve().parents:
        raise SetupError(f"harmonic2v was imported from {harmonic2v.__file__}, not from {src}")


def set_up(name: str, seed: int):
    """Import, generate the inputs, and run the workload's tiny input once."""
    import_library()
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    workload = cls(seed)
    tiny = cls(seed, **cls.TINY)
    for item in tiny.items:
        # A broken library is reported by the timed phase's checks, not here.
        try:
            tiny.check(item, tiny.call(item))
        except Exception as exc:
            print(f"warm-up input raised {type(exc).__name__}: {exc}", file=sys.stderr)
    return workload


def probe_setup(args) -> list:
    """Set-up time of fresh interpreters, spawn to ready, one at a time."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=os.getcwd())
        try:
            readable, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if readable else b""
            ready = time.perf_counter()
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        code = proc.returncode
        if code != 0 or line.strip() != b"ready":
            raise SetupError(f"set-up probe exited with code {code}")
        times.append(ready - t0)
    return times


class Pass:
    """Issues every item of one workload once, in order, and checks each output."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies = []
        #: Inputs completed per second of library time, one entry per pass.
        self.pass_rates = []
        self.attempted = 0
        self.failed = 0
        self.first_digests = None
        self.stdout_bytes = 0

    def run(self, tracer=None) -> float:
        workload = self.workload
        clock = time.perf_counter
        digests = []
        stdout_bytes = 0
        done = len(self.latencies)
        start = clock()
        for index, item in enumerate(workload.items):
            if tracer is not None:
                tracer.request = index
            self.attempted += 1
            t0 = clock()
            try:
                output = workload.call(item)
            except Exception as exc:  # a raising input is a failed input; keep going
                print(f"input {index} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                self.failed += 1
                digests.append(None)
                continue
            self.latencies.append(clock() - t0)
            stdout_bytes += workload.stdout_bytes(output)
            try:
                ok = workload.check(item, output)
            except (ValueError, KeyError, TypeError) as exc:
                print(f"input {index}: unreadable output ({exc})", file=sys.stderr)
                ok = False
            digest = hashlib.sha256(workload.digest_bytes(item, output)).digest()
            if self.first_digests is not None and digest != self.first_digests[index]:
                print(f"input {index}: output differs from the first pass", file=sys.stderr)
                ok = False
            if not ok:
                self.failed += 1
            digests.append(digest)
        wall = clock() - start
        busy = sum(self.latencies[done:])
        if busy:
            self.pass_rates.append((len(self.latencies) - done) / busy)
        if self.first_digests is None:
            self.first_digests = digests
        self.stdout_bytes = stdout_bytes
        return wall

    def digest(self) -> str:
        h = hashlib.sha256()
        for d in self.first_digests:
            h.update(d if d is not None else b"<failed>")
        return h.hexdigest()


def tail(latencies):
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = int(n * pct / 100.0)
        beyond = n - rank - 1
        if rank < n and beyond >= TAIL_MIN_BEYOND:
            return {"percentile": pct, "value_s": ordered[rank], "samples": n, "beyond": beyond}
    return None


def check_digest(workload_name: str, seed: int, digest: str):
    """None when no digest is recorded for this seed, else whether it matches."""
    if seed != DEFAULT_SEED:
        return None
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    expected = recorded.get(workload_name)
    return None if expected is None else expected == digest


def host_facts() -> dict:
    import numpy

    threads = None
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "threads": threads,
    }


def run_end_to_end(args, workload):
    own_setup = time.perf_counter() - T_START
    probes = probe_setup(args)
    work = Pass(workload)
    start = time.perf_counter()
    passes = 0
    while True:
        work.run()
        passes += 1
        if time.perf_counter() - start >= args.seconds:
            break
    lat = work.latencies
    metrics = {
        "setup_s": statistics.median(probes),
        "inputs_per_s": statistics.median(work.pass_rates) if work.pass_rates else 0.0,
        "latency_p50_s": statistics.median(lat) if lat else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = dict(END_TO_END)
    detail = {
        "setup_probes_s": probes,
        "own_setup_s": own_setup,
        "passes": passes,
        "items_per_pass": len(workload.items),
        "samples": len(lat),
        "timed_phase_s": time.perf_counter() - start,
        "latency_tail": tail(lat),
    }
    return work, {k: (v, units[k]) for k, v in metrics.items()}, detail


def run_traced(args, workload):
    from layers import Tracer, count_metrics, metric_catalog

    work = Pass(workload)
    start = time.perf_counter()
    rounds = []
    reference = None
    counts_repeat = True
    tracer = None
    while True:
        untraced = work.run()
        tracer = Tracer()
        with tracer:
            traced = work.run(tracer)
        values = tracer.aggregate()
        values["cli.stdout_bytes"] = work.stdout_bytes
        counts = count_metrics(values)
        if reference is None:
            reference = counts
        elif counts != reference:
            counts_repeat = False
        rounds.append((untraced, traced, values))
        if time.perf_counter() - start >= args.seconds:
            break
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracer.write(span_file)
    metrics = {}
    for name, unit, _better in metric_catalog():
        if name == "trace.overhead_s":
            value = statistics.median(t - u for u, t, _ in rounds)
        elif name in reference:
            value = reference[name]
        else:
            value = statistics.median(v[name] for _, _, v in rounds)
        metrics[name] = (value, unit)
    detail = {
        "rounds": len(rounds),
        "items_per_pass": len(workload.items),
        "untraced_pass_s": [u for u, _, _ in rounds],
        "traced_pass_s": [t for _, t, _ in rounds],
        "spans": len(tracer.spans),
        "span_file": str(span_file.relative_to(ROOT)),
        "counts_repeat": counts_repeat,
    }
    return work, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    from workloads import WORKLOADS

    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        workload = set_up(args.workload, args.seed)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    try:
        work, metrics, detail = (run_traced if args.trace else run_end_to_end)(args, workload)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    digest = work.digest()
    digest_ok = check_digest(args.workload, args.seed, digest)
    failed = work.failed + (1 if digest_ok is False else 0)
    detail.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "digest": digest,
            "digest_matches": digest_ok,
            "failed_ratio": failed / work.attempted,
            "host": host_facts(),
        }
    )
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:18s} {name:38s} {value:>16.6g} {unit}")
    tail_info = detail.get("latency_tail")
    if tail_info:
        print(f"{args.workload:18s} {'latency_tail_s':38s} {tail_info['value_s']:>16.6g} s"
              f"  (p{tail_info['percentile']:g} of {tail_info['samples']}, {tail_info['beyond']} beyond)")
    print(f"{args.workload:18s} {'failed_ratio':38s} {failed / work.attempted:>16.6g} ratio")
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": failed == 0 and detail.get("counts_repeat", True),
        "attempted": work.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
