"""Fingerprint of the library's numbers, to show that a change keeps them.

    python3 tools/fingerprint.py [--out FILE] [--against REV]

Runs against the library in ``src/`` of this checkout and writes one
deterministic JSON document (to FILE, else to standard output).  It runs
serially on one BLAS thread unless ``OPENBLAS_NUM_THREADS`` and
``QUDITPULSE_THREADS`` are set: it sets each to 1 only where the
environment leaves it unset, so a run with other counts can be compared
with ``cmp`` against the one-thread file.  Its fields:

- per ``eval_matrix`` system of the benchmark, with the pulse the benchmark
  draws at seed 1234: the objective value, the gradient, the states and
  guard populations of ``propagate``, and the certificate infidelities at
  the claim resolution and at twice it;
- the 4-iteration CNOT ``OptResult`` of the ``opt_cnot_budget`` workload;
- acceptance criterion 7's ``multi_run`` ledgers at search seeds 1234, 1, 2
  and 3.

Floats are written as their full ``repr``, arrays as shape and SHA-256 of
their bytes.  With ``--against REV``, REV's ``src/`` is extracted with
``git archive`` into a temporary directory and imported under another module
name in the same process, and each field is reported as identical or as its
largest difference relative to REV's largest magnitude.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads OpenBLAS
os.environ.setdefault("QUDITPULSE_THREADS", "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402  (the benchmark's inputs; imports src/'s quditpulse)

INPUT_SEED = 1234
SEARCH_SEEDS = (1234, 1, 2, 3)
# Acceptance criterion 7: H_d, d=2, from 50 ns at guess scale 0.01.
SEARCH_T_START, SEARCH_GUESS_SCALE = 50.0, 0.01


def load_package(src: Path, name: str):
    """Import the ``quditpulse`` package under ``src`` as module ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, src / "quditpulse" / "__init__.py",
        submodule_search_locations=[str(src / "quditpulse")])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _repr(value):
    """A float's full repr, as a Python float's; other values as they are."""
    return repr(float(value)) if isinstance(value, float) else value


def _ledger(search) -> dict:
    """A search's ledger, floats as reprs, and its best coefficients."""
    return {
        "T_best": _repr(search.T_best),
        "fidelity_best": _repr(search.fidelity_best),
        "restarts_used": search.restarts_used,
        "records": [[_repr(v) for v in vars(r).values()] for r in search.records],
        "alpha_best": search.alpha_best,
    }


def fingerprint(name: str) -> dict:
    """Field name -> value for the package imported as ``name``: floats,
    arrays, or JSON values whose floats are reprs."""
    qp = sys.modules[name]
    dynamics, ipr, pulse = (importlib.import_module(f"{name}.{m}")
                            for m in ("dynamics", "ipr", "pulse"))
    cfg = qp.ObjectiveConfig()
    fields = {}
    inputs = np.random.SeedSequence(INPUT_SEED).spawn(2)[0]

    def random_pulse(sys_, T, scale, rng):
        params = qp.default_params(sys_, T)
        return params.with_alpha(pulse.random_guess(params, scale, rng))

    rng = np.random.default_rng(inputs)
    for label, nq, d, gate_name, T, _, _ in workloads.MATRIX:
        sys_ = qp.transmon_system(num_qudits=nq, d=d, guard=2)
        target = qp.gate(gate_name, d)
        params = random_pulse(sys_, T, workloads.MATRIX_AMPLITUDE, rng)
        traj = qp.propagate(sys_, params)
        claim = dynamics.default_steps_per_ns(sys_)
        fields.update({
            f"{label}/value": qp.objective(sys_, params, target, cfg),
            f"{label}/gradient": qp.gradient(sys_, params, target, cfg),
            f"{label}/states": traj.states,
            f"{label}/guard_pop": traj.guard_pop,
            f"{label}/certificate_1x": ipr._infidelity(sys_, params, target, claim),
            f"{label}/certificate_2x": ipr._infidelity(sys_, params, target, 2 * claim),
        })

    rng = np.random.default_rng(inputs)
    sys_ = qp.transmon_system(num_qudits=2, d=2, guard=2)
    params0 = random_pulse(sys_, 100.0, 0.01, rng)
    result = qp.minimize(sys_, params0, qp.gate("CNOT", 2), cfg,
                         max_iter=workloads.CNOT_ITERATIONS)
    fields["cnot/alpha_final"] = result.alpha_final
    fields["cnot/result"] = {
        "fidelity": _repr(result.fidelity), "iterations": result.iterations,
        "reason": result.reason, "n_forward": result.n_forward,
        "n_gradient": result.n_gradient,
        "history": [[_repr(v) for v in row] for row in result.history]}

    sys_ = qp.transmon_system(num_qudits=1, d=2, guard=2)
    optimizer = ipr.standard_optimizer(cfg, max_iter=workloads.IPR_MAX_ITER)
    for seed in SEARCH_SEEDS:
        base = qp.IPRConfig(T_start=SEARCH_T_START, guess_scale=SEARCH_GUESS_SCALE, seed=seed)
        summary = qp.multi_run(sys_, qp.gate("H_d", 2), base, workloads.IPR_STARTS,
                               optimizer=optimizer)
        searches = [("pilot", summary.pilot)] + [
            (f"T_start {c.T_start!r} seed {c.seed}", r)
            for c, r in zip(summary.configs, summary.results)]
        for key, search in searches:
            ledger = _ledger(search)
            fields[f"criterion7/{seed}/{key}/alpha_best"] = ledger.pop("alpha_best")
            fields[f"criterion7/{seed}/{key}"] = ledger
        fields[f"criterion7/{seed}/summary"] = [
            _repr(v) for v in (summary.t_ref, summary.t_min, summary.t_mean, summary.t_std,
                               summary.fidelity_best)]
    return fields


def encode(value):
    if isinstance(value, np.ndarray):
        return {"shape": list(value.shape), "dtype": str(value.dtype),
                "sha256": hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()}
    return _repr(value)


def compare(new, old) -> str:
    """'identical', or the largest difference relative to max |old|."""
    if isinstance(new, (np.ndarray, float)) and isinstance(old, (np.ndarray, float)):
        new, old = np.asarray(new), np.asarray(old)
        if new.shape != old.shape:
            return f"shape {new.shape} against {old.shape}"
        if new.tobytes() == old.tobytes():
            return "identical"
        scale = np.max(np.abs(old)) if old.size else 0.0
        return f"relative difference {np.max(np.abs(new - old)) / (scale or 1.0):.3e}"
    return "identical" if encode(new) == encode(old) else "differs"


def extract(rev: str, into: Path) -> Path:
    """REV's src/ extracted into ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return into / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the JSON document here, not to standard output")
    parser.add_argument("--against", metavar="REV",
                        help="report each field as identical to REV's or by how much it differs")
    args = parser.parse_args(argv)
    fields = fingerprint("quditpulse")
    document = json.dumps({k: encode(v) for k, v in fields.items()}, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(document)
    elif not args.against:
        sys.stdout.write(document)
    if args.against:
        with tempfile.TemporaryDirectory() as tmp:
            load_package(extract(args.against, Path(tmp)), "quditpulse_base")
            base = fingerprint("quditpulse_base")
        if base.keys() != fields.keys():
            print(f"fields differ: {sorted(base.keys() ^ fields.keys())}")
        for key in (k for k in fields if k in base):
            print(f"{key}: {compare(fields[key], base[key])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
