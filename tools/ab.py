"""Paired timings of the library in ``src/`` against another revision's.

    python3 tools/ab.py --base REV [--pairs N]

REV's ``src/`` is extracted as ``tools/fingerprint.py --against`` extracts
it and imported under another module name in this process; both sides run
on one BLAS thread (``OPENBLAS_NUM_THREADS=1``).  The operations:

- ``objective.forward`` and ``objective.backward`` on each ``eval_matrix``
  system of the benchmark, with the pulse the benchmark draws at seed 1234,
  each repeated as often as that workload repeats it;
- the pilot ``ipr_run`` of acceptance criterion 7 (H_d, d=2, from 50 ns at
  guess scale 0.01, search seed 1234).

Each operation runs in N interleaved pairs (default 21), the side that runs
first alternating from pair to pair.  Per operation the script prints the
median of the pairs' wall-time ratios change / base, their quartiles, and
the pairs the change won (ratio below 1).  Timings go to standard output
only.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import argparse  # noqa: E402
import importlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

# Imports src/'s quditpulse and the benchmark's inputs.
from fingerprint import (  # noqa: E402
    INPUT_SEED,
    SEARCH_GUESS_SCALE,
    SEARCH_T_START,
    extract,
    load_package,
    workloads,
)


def operations(name: str) -> dict:
    """Operation label -> (call, repeats) for the package imported as ``name``."""
    qp = sys.modules[name]
    objective, ipr, pulse = (importlib.import_module(f"{name}.{m}")
                             for m in ("objective", "ipr", "pulse"))
    cfg = qp.ObjectiveConfig()
    rng = np.random.default_rng(np.random.SeedSequence(INPUT_SEED).spawn(2)[0])
    ops = {}
    for label, nq, d, gate_name, T, n_forward, n_gradient in workloads.MATRIX:
        sys_ = qp.transmon_system(num_qudits=nq, d=d, guard=2)
        target = qp.gate(gate_name, d)
        params = qp.default_params(sys_, T)
        params = params.with_alpha(pulse.random_guess(params, workloads.MATRIX_AMPLITUDE, rng))
        cache = objective.forward(sys_, params, target, cfg)
        ops[f"forward {label}"] = (
            lambda s=sys_, p=params, t=target: objective.forward(s, p, t, cfg), n_forward)
        ops[f"backward {label}"] = (lambda c=cache: objective.backward(c), n_gradient)
    sys_ = qp.transmon_system(num_qudits=1, d=2, guard=2)
    search = qp.IPRConfig(T_start=SEARCH_T_START, guess_scale=SEARCH_GUESS_SCALE,
                          seed=INPUT_SEED)
    optimizer = ipr.standard_optimizer(cfg, max_iter=workloads.IPR_MAX_ITER)
    ops["pilot ipr_run"] = (
        lambda: ipr.ipr_run(sys_, qp.gate("H_d", 2), search, optimizer), 1)
    return ops


def seconds(call, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        call()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", metavar="REV", required=True,
                        help="the revision whose src/ the change is timed against")
    parser.add_argument("--pairs", type=int, default=21, help="interleaved pairs per operation")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    with tempfile.TemporaryDirectory() as tmp:
        load_package(extract(args.base, Path(tmp)), "quditpulse_base")
        change, base = operations("quditpulse"), operations("quditpulse_base")
    for side in (change, base):  # warm the caches of both sides
        for call, _ in side.values():
            call()
    ratios = {label: [] for label in change}
    for i in range(args.pairs):
        for label, (call, repeats) in change.items():
            base_call = base[label][0]
            if i % 2:
                t_change, t_base = seconds(call, repeats), seconds(base_call, repeats)
            else:
                t_base, t_change = seconds(base_call, repeats), seconds(call, repeats)
            ratios[label].append(t_change / t_base)
    print(f"change / base over {args.pairs} pairs, one BLAS thread")
    print(f"{'operation':<18} {'median':>7} {'q1':>7} {'q3':>7}  wins")
    for label, values in ratios.items():
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        wins = sum(r < 1.0 for r in values)
        print(f"{label:<18} {median:7.3f} {q1:7.3f} {q3:7.3f}  {wins}/{len(values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
