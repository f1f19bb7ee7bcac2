"""Command-line interface: optimization runs, duration searches, sweeps,
fits, and plot-ready CSV exports.

All structured artifacts are JSON, tabular data is CSV, and every command
is deterministic for a fixed config seed (outputs carry no timestamps).
Exit codes: 0 success, 1 validation or I/O error, 2 search failed,
3 numeric abort.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__, analysis, ipr as ipr_mod, pulse as pulse_mod
from .dynamics import PropagationError, guard_populations, propagate
from .model import (
    DEFAULT_COUPLING_GHZ,
    DEFAULT_OMEGA_GHZ,
    DEFAULT_XI_GHZ,
    GATE_NAMES,
    TWO_QUDIT_GATES,
    QuditSystem,
    gate,
    transmon_system,
)
from .objective import ObjectiveConfig
from .optimize import OptimizerAbort, minimize
from .pulse import default_params, load_pulse, random_guess, save_pulse

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SEARCH_FAILED = 2
EXIT_NUMERIC = 3

FIT_EVAL_RANGE = range(2, 9)


class CliError(Exception):
    """Validation or I/O failure; maps to exit code 1."""


@dataclass(frozen=True)
class RunConfig:
    """User-facing configuration; frequencies in GHz, time in ns."""

    guard: int = 2
    omega_ghz: tuple[float, ...] = DEFAULT_OMEGA_GHZ
    xi_ghz: tuple[float, ...] = DEFAULT_XI_GHZ
    coupling_ghz: float = DEFAULT_COUPLING_GHZ
    omega_rot_ghz: float | None = None
    w_guard: float = 0.1
    w_l2: float = 0.0
    error_threshold: float = 1e-3
    max_iter: int | None = None
    guess_scale: float = 0.01
    steps_per_ns: int | None = None
    seed: int = 1234


_CONFIG_SECTIONS = {
    "system": {"guard", "omega_ghz", "xi_ghz", "coupling_ghz", "omega_rot_ghz"},
    "objective": {"w_guard", "w_l2", "error_threshold"},
    "optimizer": {"max_iter", "guess_scale"},
    "integrator": {"steps_per_ns"},
}


def _fits(kind: str, value) -> bool:
    """Whether a JSON value fits the RunConfig annotation ``kind``."""
    if value is None:
        return kind.endswith("| None")
    if kind.startswith("tuple"):
        return isinstance(value, list) and all(_fits("float", x) for x in value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) if kind.startswith("int") else math.isfinite(value)


def load_config(path: str | None) -> RunConfig:
    """Read and validate the run configuration; None gives the defaults."""
    if path is None:
        return RunConfig()
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed config JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError("config root must be a JSON object")

    fields: dict = {}
    for section, keys in _CONFIG_SECTIONS.items():
        block = doc.pop(section, {})
        if not isinstance(block, dict):
            raise CliError(f"config section {section!r} must be an object")
        unknown = set(block) - keys
        if unknown:
            raise CliError(f"unknown keys in config section {section!r}: {sorted(unknown)}")
        fields.update(block)
    if "seed" in doc:
        fields["seed"] = doc.pop("seed")
    if doc:
        raise CliError(f"unknown top-level config keys: {sorted(doc)}")

    kinds = RunConfig.__annotations__  # strings: this module defers annotations
    for key, value in fields.items():
        if not _fits(kinds[key], value):
            raise CliError(f"config key {key!r} must be {kinds[key]}, got {value!r}")
        if isinstance(value, list):
            fields[key] = tuple(value)
    # Value ranges are checked where the values are used: by QuditSystem,
    # ObjectiveConfig, IPRConfig and random_guess, whose ValueError exits 1.
    return RunConfig(**fields)


def build_system(cfg: RunConfig, gate_name: str, d: int) -> QuditSystem:
    num_qudits = 2 if gate_name in TWO_QUDIT_GATES else 1
    return transmon_system(
        num_qudits=num_qudits,
        d=d,
        guard=cfg.guard,
        omega_ghz=cfg.omega_ghz,
        xi_ghz=cfg.xi_ghz,
        coupling_ghz=cfg.coupling_ghz,
        omega_rot_ghz=cfg.omega_rot_ghz,
    )


def _objective_config(cfg: RunConfig) -> ObjectiveConfig:
    return ObjectiveConfig(cfg.w_guard, cfg.w_l2, cfg.error_threshold)


def _ipr_config(cfg: RunConfig, t_start: float, seed_offset: int = 0) -> ipr_mod.IPRConfig:
    return ipr_mod.IPRConfig(
        T_start=t_start,
        guess_scale=cfg.guess_scale,
        error_threshold=cfg.error_threshold,
        seed=cfg.seed + seed_offset,
    )


def _optimizer(cfg: RunConfig, mock_threshold: float | None, units: int = 1):
    """The standard optimizer, or the mock succeeding from mock_threshold * units."""
    if mock_threshold is not None:
        return ipr_mod.threshold_mock_optimizer(mock_threshold * units)
    return ipr_mod.standard_optimizer(_objective_config(cfg), cfg.max_iter, cfg.steps_per_ns)


def cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    system = build_system(cfg, args.gate, args.d)
    target = gate(args.gate, args.d)
    params = default_params(system, args.T)
    params = params.with_alpha(random_guess(params, cfg.guess_scale, cfg.seed))

    log_rows: list[tuple] = []

    def log(iteration, value, infid, guard, step):
        log_rows.append((iteration, value, infid, guard, step))

    result = minimize(
        system, params, target, _objective_config(cfg),
        max_iter=cfg.max_iter, steps_per_ns=cfg.steps_per_ns, on_iteration=log,
    )
    save_pulse(
        args.out, system, params.with_alpha(result.alpha_final), result.fidelity,
        {"gate": args.gate, "d": args.d, "seed": cfg.seed},
    )
    log_path = args.log or str(args.out) + ".iters.csv"
    with open(log_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "objective", "infidelity", "guard_penalty", "step_size"])
        writer.writerows(log_rows)
    print(
        f"gate={args.gate} d={args.d} T={args.T} fidelity={result.fidelity:.6f} "
        f"iterations={result.iterations} converged={result.converged} "
        f"reason={result.reason}"
    )
    return EXIT_OK if result.converged else EXIT_SEARCH_FAILED


def _ipr_result_doc(
    cfg: ipr_mod.IPRConfig,
    result: ipr_mod.IPRResult,
    system: QuditSystem,
    gate_name: str,
) -> dict:
    doc = {
        "config": asdict(cfg),
        "records": [asdict(r) for r in result.records],
        "best_pulse": None,
        "summary": {
            "T_best": result.T_best,
            "fidelity_best": result.fidelity_best,
            "restarts_used": result.restarts_used,
            "attempts": len(result.records),
        },
    }
    if result.succeeded:
        best = default_params(system, result.T_best).with_alpha(result.alpha_best)
        doc["best_pulse"] = pulse_mod.pulse_doc(
            system, best, result.fidelity_best, {"gate": gate_name}
        )
    return doc


def cmd_ipr(args) -> int:
    cfg = load_config(args.config)
    system = build_system(cfg, args.gate, args.d)
    target = gate(args.gate, args.d)
    optimizer = _optimizer(cfg, args.mock_threshold)
    ipr_cfg = _ipr_config(cfg, args.t_start)
    if args.step is not None:
        ipr_cfg = replace(ipr_cfg, step=args.step)
    result = ipr_mod.ipr_run(system, target, ipr_cfg, optimizer)
    with open(args.out, "w") as fh:
        json.dump(_ipr_result_doc(ipr_cfg, result, system, args.gate), fh, indent=2)
        fh.write("\n")
    if result.succeeded:
        print(f"gate={args.gate} d={args.d} T_best={result.T_best} "
              f"fidelity={result.fidelity_best:.6f} attempts={len(result.records)}")
        return EXIT_OK
    print(f"gate={args.gate} d={args.d}: no duration reached the target fidelity",
          file=sys.stderr)
    return EXIT_SEARCH_FAILED


def _parse_d_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = [int(text)]
    if not values or any(v < 2 for v in values):
        raise CliError(f"invalid d range {text!r}")
    return values


SWEEP_HEADER = ["gate", "d", "run", "seed", "T_start", "T_best", "fidelity", "mean", "std"]


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    d_values = _parse_d_range(args.d_range)
    rows: list[list] = []
    minima: list[tuple[int, float]] = []
    for d in d_values:
        system = build_system(cfg, args.gate, d)
        target = gate(args.gate, d)
        if len(minima) >= 2:
            (d1, t1), (d2, t2) = minima[-2], minima[-1]
            slope = (t2 - t1) / (d2 - d1)
            t_start = max(1.0, t2 + slope * (d - d2))
        else:
            t_start = args.t_start
        base = _ipr_config(cfg, t_start, seed_offset=1000 * d)
        optimizer = _optimizer(cfg, args.mock_threshold, units=d - 1)
        summary = ipr_mod.multi_run(system, target, base, args.runs, optimizer=optimizer)
        for run_idx, (res, run_cfg) in enumerate(zip(summary.results, summary.configs)):
            rows.append([
                args.gate, d, run_idx, run_cfg.seed, run_cfg.T_start,
                res.T_best if res.succeeded else "",
                f"{res.fidelity_best:.8f}", "", "",
            ])
        if summary.t_min is not None:
            minima.append((d, summary.t_min))
        rows.append([
            args.gate, d, "summary", "", "",
            summary.t_min if summary.t_min is not None else "",
            f"{summary.fidelity_best:.8f}",
            summary.t_mean if summary.t_mean is not None else "",
            summary.t_std if summary.t_std is not None else "",
        ])
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def cmd_fit(args) -> int:
    try:
        with open(args.input) as fh:
            reader = csv.DictReader(fh)
            data: dict[str, dict[int, float]] = {}
            for row in reader:
                if row["run"] == "summary" or not row["T_best"]:
                    continue
                best = data.setdefault(row["gate"], {})
                d = int(row["d"])
                t = float(row["T_best"])
                best[d] = min(best.get(d, np.inf), t)
    except OSError as exc:
        raise CliError(f"cannot read durations CSV: {exc}") from exc
    except (KeyError, ValueError) as exc:
        raise CliError(f"malformed durations CSV: {exc}") from exc
    if not data:
        raise CliError("durations CSV contains no data rows")

    models = ("linear", "quadratic") if args.model == "both" else (args.model,)
    out: dict = {}
    for gate_name, by_d in sorted(data.items()):
        points = sorted(by_d.items())
        out[gate_name] = {}
        for model in models:
            res = analysis.fit(points, model)
            out[gate_name][model] = {
                "a": res.a,
                "b": res.b,
                "c": res.c,
                "std_errors": list(res.std_errors),
                "r_squared": res.r_squared,
                "degenerate": res.degenerate,
                "evaluated": {
                    str(d): analysis.evaluate_fit(res, d) for d in FIT_EVAL_RANGE
                },
            }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    system, params, _, _ = _load_pulse_file(args.pulse)
    traj = propagate(system, params, steps_per_ns=args.steps_per_ns)
    n_states = traj.states.shape[1]
    n_cols = traj.states.shape[2]
    header = ["time_ns"]
    header += [f"pop_c{c}_s{s}" for c in range(n_cols) for s in range(n_states)]
    header += [f"guard_c{c}" for c in range(n_cols)]
    header += ["guard_avg"]
    guard_avg = guard_populations(traj)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, t in enumerate(traj.times):
            pops = np.abs(traj.states[i]) ** 2
            row = [repr(float(t))]
            row += [repr(float(pops[s, c])) for c in range(n_cols) for s in range(n_states)]
            row += [repr(float(traj.guard_pop[i, c])) for c in range(n_cols)]
            row += [repr(float(guard_avg[i]))]
            writer.writerow(row)
    print(f"wrote {args.out} ({len(traj.times)} samples)")
    return EXIT_OK


def cmd_export_lab(args) -> int:
    system, params, _, _ = _load_pulse_file(args.pulse)
    n_samples = int(round(params.T * args.sample_rate)) + 1
    times = np.linspace(0.0, params.T, n_samples)
    amplitudes = pulse_mod.lab_frame_control(params, system.omega_rot, times)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_ns"] + [f"f_{k}" for k in range(params.num_controls)])
        for i, t in enumerate(times):
            writer.writerow([repr(float(t))] +
                            [repr(float(amplitudes[k, i])) for k in range(params.num_controls)])
    print(f"wrote {args.out} ({n_samples} samples)")
    return EXIT_OK


def _load_pulse_file(path: str):
    try:
        return load_pulse(path)
    except OSError as exc:
        raise CliError(f"cannot read pulse JSON: {exc}") from exc
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise CliError(f"malformed pulse JSON: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 by default, which collides with the
    # search-failed code; usage errors are validation errors here.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _positive(text: str) -> float:
    """argparse type for durations, rates and mock thresholds: a finite number > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quditpulse",
                     description="Shortest-duration qudit gate pulse toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="run configuration JSON")
        p.add_argument("--gate", required=True, choices=GATE_NAMES)
        p.add_argument("--d", type=int, default=2, help="essential levels per qudit")

    p_opt = sub.add_parser("optimize", help="one fixed-duration optimization")
    add_common(p_opt)
    p_opt.add_argument("--T", type=_positive, required=True, help="pulse duration, ns")
    p_opt.add_argument("--out", required=True, help="output pulse JSON")
    p_opt.add_argument("--log", help="iteration log CSV (default: <out>.iters.csv)")
    p_opt.set_defaults(func=cmd_optimize)

    p_ipr = sub.add_parser("ipr", help="shortest-duration search")
    add_common(p_ipr)
    p_ipr.add_argument("--t-start", type=_positive, required=True, help="first duration, ns")
    p_ipr.add_argument("--step", type=_positive, help="initial duration step, ns")
    p_ipr.add_argument("--out", required=True, help="output result JSON")
    p_ipr.add_argument("--mock-threshold", type=_positive,
                       help="drive the search with a success-above-threshold mock optimizer")
    p_ipr.set_defaults(func=cmd_ipr)

    p_sweep = sub.add_parser("sweep", help="duration search over a range of dimensions")
    add_common(p_sweep)
    p_sweep.add_argument("--d-range", required=True, help="e.g. 2..4 or 3")
    p_sweep.add_argument("--runs", type=int, default=10, help="searches per dimension")
    p_sweep.add_argument("--t-start", type=_positive, default=50.0,
                         help="start duration for the lowest dimensions")
    p_sweep.add_argument("--out", required=True, help="output CSV")
    p_sweep.add_argument("--mock-threshold", type=_positive,
                         help="per-unit mock threshold (testing)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_fit = sub.add_parser("fit", help="regress duration against dimension")
    p_fit.add_argument("--in", dest="input", required=True, help="durations CSV")
    p_fit.add_argument("--model", choices=("linear", "quadratic", "both"),
                       default="both")
    p_fit.add_argument("--out", required=True, help="output fit JSON")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="propagate a stored pulse, export populations")
    p_sim.add_argument("--pulse", required=True, help="pulse JSON")
    p_sim.add_argument("--steps-per-ns", type=int)
    p_sim.add_argument("--out", required=True, help="output CSV")
    p_sim.set_defaults(func=cmd_simulate)

    p_lab = sub.add_parser("export-lab", help="export lab-frame drive samples")
    p_lab.add_argument("--pulse", required=True, help="pulse JSON")
    p_lab.add_argument("--sample-rate", type=_positive, default=16.0, help="samples per ns")
    p_lab.add_argument("--out", required=True, help="output CSV")
    p_lab.set_defaults(func=cmd_export_lab)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (PropagationError, OptimizerAbort) as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
