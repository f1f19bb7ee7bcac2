"""quditpulse benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload against the library in ``src/`` of the checkout this file
sits in, checks its outputs, and prints as the last line of standard output
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it is a JSON record of the run: the machine,
the per-operation times and the failed checks.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Cleared, not pinned, before numpy loads OpenBLAS: the program runs with its
# own thread defaults.
THREAD_VARS = ("QUDITPULSE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("ipr_h2_multistart", "opt_cnot_budget", "eval_matrix")
DEFAULT_SEED = 1234
SETUP_CHILDREN = 6  # set-up is timed in these fresh interpreters plus this one
# The one-worker search is skipped when the traced one took longer than this,
# so that a traced run on a slow machine still ends within 180 s.
SERIAL_BASELINE_MAX_S = 70.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "infidelity_ref": "1",
}


class LibraryMissing(RuntimeError):
    pass


def load_library():
    """Import quditpulse from this checkout's src/ and the workload module."""
    if not (SRC / "quditpulse" / "__init__.py").is_file():
        raise LibraryMissing(f"no quditpulse package under {SRC}")
    sys.path.insert(0, str(SRC))
    import quditpulse

    if Path(quditpulse.__file__).resolve().parent != (SRC / "quditpulse").resolve():
        raise LibraryMissing(f"quditpulse imported from {quditpulse.__file__}")
    import workloads

    return workloads


def child_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def machine_record() -> dict:
    import numpy as np

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    try:
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10).stdout.split()
        if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # multi_run's default for the workload's 10 starts, QUDITPULSE_THREADS unset
        "multistart_workers": max(1, min(10, nproc or 1)),
        "commit": commit,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(wl, seconds: float) -> tuple[dict, object, dict]:
    """Repeat the operation until ``seconds`` have passed (at least once)."""
    walls, cpus, outputs = [], [], []
    start = time.perf_counter()
    while True:
        c0, t0 = time.process_time(), time.perf_counter()
        outputs.append(wl.op())
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        if time.perf_counter() - start >= seconds:
            break
    checked = wl.check(outputs)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_mb(),
        "infidelity_ref": checked.infidelity_ref,
    }
    record = {"op_wall_s": walls, "op_cpu_s": cpus, **wl.summary(outputs)}
    return metrics, checked, record


def traced_run(wl) -> tuple[dict, object, dict]:
    """One traced operation; the per-layer metrics come from its spans."""
    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        output = wl.op()
        traced_wall = time.perf_counter() - t0
    serial_wall = None
    if wl.name == "ipr_h2_multistart" and traced_wall <= SERIAL_BASELINE_MAX_S:
        serial_wall = serial_baseline(wl, tracer, output)
    checked = wl.check([output])
    metrics = layers.layer_metrics(tracer.run_spans(0), tracer.missing,
                                   wl.system_table(checked), serial_wall)
    metrics["trace.wall_s"] = traced_wall
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}.jsonl"
    tracer.write(spans_path)
    record = {"missing": tracer.missing, "spans": len(tracer.spans), "serial_wall_s": serial_wall,
              "spans_file": str(spans_path.relative_to(ROOT)),
              "overhead": trace_overhead(wl.name, traced_wall), **wl.summary([output])}
    return metrics, checked, record


def serial_baseline(wl, tracer, output) -> float | None:
    """Wall time of the same search with one worker, reusing the pilot."""
    pilot = [s for s in tracer.run_spans(0) if s.name == "ipr.ipr_run" and s.parent is not None]
    if output.pilot is None or not pilot:
        return None
    tracer.run = 1
    os.environ["QUDITPULSE_THREADS"] = "1"
    try:
        with tracer:
            t0 = time.perf_counter()
            wl.op(t_ref=output.t_ref)
            serial = time.perf_counter() - t0
    finally:
        os.environ.pop("QUDITPULSE_THREADS", None)
    return pilot[0].duration + serial


def record_untraced(workload: str, seed: int, wall: float) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "untraced.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed, "wall_s": wall}) + "\n")


def trace_overhead(workload: str, traced_wall: float) -> float | None:
    """Traced wall time over the median of this checkout's untraced runs, minus 1."""
    try:
        with open(OUT_DIR / "untraced.jsonl") as fh:
            walls = [r["wall_s"] for r in map(json.loads, fh) if r["workload"] == workload]
    except OSError:
        return None
    return traced_wall / statistics.median(walls) - 1.0 if walls else None


def _finite(value):
    """Non-finite values (a check that had nothing to evaluate) read as null."""
    return value if value is None or math.isfinite(value) else None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ.pop(var, None)
    t0 = time.perf_counter()
    try:
        workloads = load_library()
    except LibraryMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed)
    own_setup = time.perf_counter() - t0
    if args.setup_only:
        print(repr(own_setup))
        return 0
    setups = [own_setup]

    if args.trace:
        metrics, checked, record = traced_run(wl)
        units = layers.PER_LAYER
    else:
        setups += [child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]
        metrics, checked, record = timed_run(wl, args.seconds)
        metrics["setup_s"] = statistics.median(setups)
        record_untraced(args.workload, args.seed, metrics["wall_s"])
        units = END_TO_END

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_record(), "setup_samples_s": setups,
        "ops": checked.ops, "ops_failed": len(checked.failures),
        "failures": checked.failures[:20], **record,
    }
    print(json.dumps(detail, default=float))
    result = {
        "correct": not checked.failures,
        "attempted": checked.ops,
        "failed": len(checked.failures),
        "metrics": {name: {"value": _finite(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
