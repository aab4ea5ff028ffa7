"""Benchmark of signed_influence: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload {sweep,scale,whatif,fallback} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Each op is issued only after the previous
one returned, and every op's output is checked (see workloads.py).

--trace 0 times the ops with nothing instrumented and prints the
end-to-end metrics.  --trace 1 runs each op untraced and then traced,
requires the two outputs to agree, and prints the per-layer metrics
derived from the spans (see tracing.py); per-layer figures are means per
op.  Both runs also execute all six CLI commands once on both fixtures.

The last line of stdout is the result, {"correct", "attempted", "failed",
"metrics"}; the line before it is the provenance (versions, thread
pinning, sample counts).  Both, with the spans of a traced run, are also
written to .perfbench_out/.  The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

# BLAS threads are pinned before numpy loads: one client, one thread, so
# that timings do not depend on what else shares the machine's cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# the tracer's span stack assumes the library computes gains on one thread
os.environ.pop("SIGNED_INFLUENCE_JOBS", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REQUIRED = (
    ROOT / "BENCHMARK.json",
    ROOT / "src" / "signed_influence" / "__init__.py",
    ROOT / "tests" / "netgen.py",
    ROOT / "fixtures" / "reference11.yaml",
    ROOT / "fixtures" / "showcase17.yaml",
)
SETUP_REPEATS = 5
MIN_PASSES = 3
IMPORTS = "import signed_influence, signed_influence.cli"
SHOWN_FAILURES = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "scale", "whatif", "fallback"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def _import_s() -> float:
    """Seconds a fresh interpreter takes to import the library."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True)
    return time.perf_counter() - t0


def _attempt(fn, *args):
    """Call fn; an exception is an op failure, reported and counted, not fatal."""
    try:
        return fn(*args), None
    except Exception:  # the loop must go on and count the failure
        return None, traceback.format_exc()


class Failures:
    def __init__(self):
        self.messages: list[str] = []

    def add(self, message: str | None) -> None:
        if message is None:
            return
        if len(self.messages) < SHOWN_FAILURES:
            print(f"op failed: {message}", file=sys.stderr)
        self.messages.append(message)


def _measure_untraced(prep, seconds: float, failures: Failures) -> list[list[float]]:
    """Whole passes over the ops until `seconds` and MIN_PASSES are reached.

    Returns the latencies of each distinct op, one entry per pass.
    """
    latencies = [[] for _ in prep.ops]
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        for k, op in enumerate(prep.ops):
            t0 = time.perf_counter()
            out, error = _attempt(prep.run, op, "timed")
            latencies[k].append(time.perf_counter() - t0)
            failures.add(error or _check(prep.check, op, out))
            del out  # one result alive at a time keeps peak_rss_mb repeatable
        passes += 1
    return latencies


def _measure_traced(prep, seconds: float, failures: Failures, tracer, instrument) -> tuple:
    """Each op untraced, then traced; both outputs must agree and pass the checks."""
    untraced_wall = 0.0
    ops = 0
    start = time.perf_counter()
    while True:
        for op in prep.ops:
            t0 = time.perf_counter()
            plain, error = _attempt(prep.run, op, "untraced")
            untraced_wall += time.perf_counter() - t0
            with instrument(tracer), tracer.op(ops):
                traced, traced_error = _attempt(prep.run, op, "traced")
            ops += 1
            failure = error or traced_error or _check(prep.check, op, traced)
            if failure is None:
                same, error = _attempt(prep.same, plain, traced)
                failure = error or (None if same else "traced output differs from untraced")
            failures.add(failure)
        if time.perf_counter() - start >= seconds:
            return ops, untraced_wall


def _check(check, op, out) -> str | None:
    verdict, error = _attempt(check, op, out)
    return error or verdict


def _quantile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _declared_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    args = _parse(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: run from a full checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT / "tests")]
    import tracing
    import workloads

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    failures = Failures()
    try:
        prepare = workloads.WORKLOADS[args.workload]
        setup_s = []
        for _ in range(SETUP_REPEATS):
            import_s = _import_s()
            t0 = time.perf_counter()
            prep = prepare(args.seed, workdir)
            setup_s.append(import_s + time.perf_counter() - t0)

        provenance = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "loop": "closed, one client, one process",
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": _version("numpy"),
            "scipy": _version("scipy"),
            "networkx": _version("networkx"),
            "pyyaml": _version("PyYAML"),
            "git_commit": _git_commit(),
        }
        record = {}
        if args.trace == 0:
            latencies = _measure_untraced(prep, args.seconds, failures)
            pooled = [t for per_op in latencies for t in per_op]
            typical = [statistics.median(per_op) for per_op in latencies]
            ops = len(pooled)
            metrics = {
                "setup_s": statistics.median(setup_s),
                "ops_per_s": ops / sum(pooled),
                "op_p50_ms": 1e3 * statistics.median(typical),
                "op_p95_ms": 1e3 * _quantile(typical, 95),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            over = (f"over the {len(typical)} distinct ops of each op's median"
                    f" over {len(latencies[0])} passes")
            provenance["timings"] = {
                "setup_s": f"median of {SETUP_REPEATS} set-ups, each a fresh interpreter's"
                           " import plus input generation, spec files and warm-up",
                "ops_per_s": f"{ops} ops / their summed latency",
                "op_p50_ms": f"50th percentile {over}",
                "op_p95_ms": f"95th percentile {over}",
                "op_p95_ms_pooled": 1e3 * _quantile(pooled, 95),
                "peak_rss_mb": "ru_maxrss of this process",
            }
            record["latencies_ms"] = [[1e3 * t for t in per_op] for per_op in latencies]
        else:
            tracer = tracing.Tracer()
            ops, untraced_wall = _measure_traced(
                prep, args.seconds, failures, tracer, tracing.instrument)
            metrics = tracing.layer_metrics(tracer.spans, ops)
            traced_wall = sum(s.end - s.start for s in tracer.spans if s.name == tracing.ROOT_SPAN)
            metrics["trace.overhead_s"] = (traced_wall - untraced_wall) / ops
            provenance["timings"] = {
                "per_layer": f"mean per op over {ops} traced ops",
                "cli.*.wall_s": "one call per fixture, summed over both",
            }
            record["spans"] = tracer.to_json()

        walls, fixture_failures = workloads.fixture_pass(workdir)
        for message in fixture_failures:
            failures.add(message)
        if args.trace == 1:
            metrics.update({f"cli.{name}.wall_s": wall for name, wall in walls.items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = _declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "are not both declared in BENCHMARK.json and measured")
    attempted = ops + len(workloads.FIXTURES) * len(walls)
    provenance["ops"] = ops
    provenance["error_rate"] = len(failures.messages) / attempted
    result = {
        "correct": not failures.messages,
        "attempted": attempted,
        "failed": len(failures.messages),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"result": result, "provenance": provenance,
                                    "failures": failures.messages, **record}))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
