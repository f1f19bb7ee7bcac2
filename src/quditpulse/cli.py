"""Command-line interface: optimization runs, duration searches, sweeps,
fits, and plot-ready CSV exports.

All structured artifacts are JSON, tabular data is CSV, and every command
is deterministic for a fixed config seed (outputs carry no timestamps).
Exit codes: 0 success, 1 validation or I/O error, 2 search failed (for
``optimize``, a run that did not converge or whose pulse failed the
certificate), 3 numeric abort.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, analysis, ipr as ipr_mod, pulse as pulse_mod
from .dynamics import PropagationError, guard_populations, propagate
from .model import (
    GATE_NAMES,
    TWO_QUDIT_GATES,
    QuditSystem,
    gate,
    transmon_system,
)
from .objective import ObjectiveConfig
from .optimize import OptimizerAbort
from .pulse import default_params, load_pulse, random_guess, save_pulse, write_json

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SEARCH_FAILED = 2
EXIT_NUMERIC = 3

FIT_EVAL_RANGE = range(2, 9)


class CliError(Exception):
    """Validation or I/O failure; maps to exit code 1."""


@dataclass(frozen=True)
class RunConfig:
    """User-facing configuration; frequencies in GHz, time in ns.

    ``system`` holds only the ``transmon_system`` keyword arguments the config sets.
    """

    system: dict = field(default_factory=dict)
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    max_iter: int | None = None
    guess_scale: float = ipr_mod.IPRConfig.guess_scale
    steps_per_ns: int | None = None
    seed: int = 1234


# The JSON type of each config key; a dict is a section of further keys.
CONFIG_KEYS = {
    "system": {"guard": "int", "omega_ghz": "list[float]", "xi_ghz": "list[float]",
               "coupling_ghz": "float", "omega_rot_ghz": "float | None"},
    "objective": {"w_guard": "float", "w_l2": "float", "error_threshold": "float"},
    "optimizer": {"max_iter": "int | None", "guess_scale": "float"},
    "integrator": {"steps_per_ns": "int | None"},
    "seed": "int",
}


def _fits(kind: str, value) -> bool:
    """Whether a JSON value has the leaf type ``kind`` of ``CONFIG_KEYS``."""
    if value is None:
        return kind.endswith("| None")
    if kind.startswith("list"):
        return isinstance(value, list) and all(_fits("float", x) for x in value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) if kind.startswith("int") else math.isfinite(value)


def _check(value, kind, name: str) -> None:
    """Raise CliError unless a JSON value has the ``CONFIG_KEYS`` type ``kind``."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise CliError(f"config {name} must be an object")
        unknown = set(value) - set(kind)
        if unknown:
            raise CliError(f"unknown keys in config {name}: {sorted(unknown)}")
        for key, item in value.items():
            _check(item, kind[key], repr(key))
    elif not _fits(kind, value):
        raise CliError(f"config {name} must be {kind}, got {value!r}")


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
    _check(doc, CONFIG_KEYS, "root")
    # Value ranges are checked where the values are used: by ObjectiveConfig
    # here, and by QuditSystem, StandardOptimizer, IPRConfig and random_guess;
    # their ValueError exits 1.
    return RunConfig(
        system=doc.get("system", {}),
        objective=ObjectiveConfig(**doc.get("objective", {})),
        **doc.get("optimizer", {}),
        **doc.get("integrator", {}),
        seed=doc.get("seed", RunConfig.seed),
    )


def build_system(cfg: RunConfig, gate_name: str, d: int) -> QuditSystem:
    num_qudits = 2 if gate_name in TWO_QUDIT_GATES else 1
    return transmon_system(num_qudits, d, **cfg.system)


def _ipr_config(
    cfg: RunConfig, t_start: float, step: float | None = None, seed_offset: int = 0
) -> ipr_mod.IPRConfig:
    return ipr_mod.IPRConfig(
        T_start=t_start,
        step=step,
        guess_scale=cfg.guess_scale,
        error_threshold=cfg.objective.error_threshold,
        seed=cfg.seed + seed_offset,
    )


def _sized_by(option: str, value: float, build, *args):
    """build(*args), or a CliError naming ``option`` if it does not fit in memory.
    ``ipr`` and ``sweep`` build their first pulse with it only for that check."""
    try:
        return build(*args)
    except MemoryError as exc:
        raise CliError(f"{option} {value:g} is too large: {exc}") from exc


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _optimizer(cfg: RunConfig, mock_threshold: float | None, units: int = 1):
    """The standard optimizer, or the mock succeeding from mock_threshold * units."""
    # Built for the mock too, so that a config the mock ignores is still checked.
    standard = ipr_mod.StandardOptimizer(cfg.objective, cfg.max_iter, cfg.steps_per_ns)
    if mock_threshold is not None:
        return ipr_mod.threshold_mock_optimizer(mock_threshold * units)
    return standard


def cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    system = build_system(cfg, args.gate, args.d)
    target = gate(args.gate, args.d)
    params = _sized_by("--T", args.T, default_params, system, args.T)
    params = params.with_alpha(random_guess(params, cfg.guess_scale, cfg.seed))
    optimizer = _optimizer(cfg, None)
    result = optimizer(system, params, target)
    save_pulse(args.out, system, params.with_alpha(result.alpha_final), result.fidelity,
               {"gate": args.gate, "d": args.d, "seed": cfg.seed},
               optimizer.resolutions(system)[1])
    _write_csv(args.log or str(args.out) + ".iters.csv",
               ["iteration", "objective", "infidelity", "guard_penalty", "step_size"],
               result.history)
    print(
        f"gate={args.gate} d={args.d} T={args.T} fidelity={result.fidelity:.6f} "
        f"iterations={result.iterations} converged={result.converged} "
        f"reason={result.reason}"
    )
    return EXIT_OK if result.converged else EXIT_SEARCH_FAILED


def _run_config_doc(run_cfg: RunConfig) -> dict:
    """The --config document that repeats a run."""
    return {
        "system": run_cfg.system,
        "objective": asdict(run_cfg.objective),
        "optimizer": {"max_iter": run_cfg.max_iter, "guess_scale": run_cfg.guess_scale},
        "integrator": {"steps_per_ns": run_cfg.steps_per_ns},
        "seed": run_cfg.seed,
    }


def _ipr_result_doc(
    run_cfg: RunConfig,
    cfg: ipr_mod.IPRConfig,
    result: ipr_mod.IPRResult,
    system: QuditSystem,
    gate_name: str,
) -> dict:
    doc = {
        "config": asdict(cfg),
        "run_config": _run_config_doc(run_cfg),
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
            system, best, result.fidelity_best, {"gate": gate_name},
            _optimizer(run_cfg, None).resolutions(system)[1],
        )
    return doc


def cmd_ipr(args) -> int:
    cfg = load_config(args.config)
    system = build_system(cfg, args.gate, args.d)
    target = gate(args.gate, args.d)
    optimizer = _optimizer(cfg, args.mock_threshold)
    ipr_cfg = _ipr_config(cfg, args.t_start, args.step)
    _sized_by("--t-start", args.t_start, default_params, system, args.t_start)  # first pulse
    result = ipr_mod.ipr_run(system, target, ipr_cfg, optimizer)
    write_json(args.out, _ipr_result_doc(cfg, ipr_cfg, result, system, args.gate))
    if result.succeeded:
        print(f"gate={args.gate} d={args.d} T_best={result.T_best} "
              f"fidelity={result.fidelity_best:.6f} attempts={len(result.records)}")
        return EXIT_OK
    print(f"gate={args.gate} d={args.d}: no duration reached the target fidelity",
          file=sys.stderr)
    return EXIT_SEARCH_FAILED


def _parse_d_range(text: str) -> list[int]:
    try:
        lo, hi = text.split("..", 1) if ".." in text else (text, text)
        values = list(range(int(lo), int(hi) + 1))
    except ValueError:
        values = []
    if not values or any(v < 2 for v in values):
        raise CliError(f"invalid --d-range {text!r}: expected D or LO..HI with 2 <= LO <= HI")
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
            _sized_by("--t-start", t_start, default_params, system, t_start)  # first pulse
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
    _write_csv(args.out, SWEEP_HEADER, rows)
    write_json(f"{args.out}.run_config.json", _run_config_doc(cfg))
    print(f"wrote {args.out} ({len(rows)} rows) and {args.out}.run_config.json")
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
                if not math.isfinite(t):
                    raise ValueError(f"T_best {row['T_best']!r} is not finite")
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
            entry = {k: v for k, v in asdict(res).items() if k != "model"}
            entry["evaluated"] = {str(d): analysis.evaluate_fit(res, d) for d in FIT_EVAL_RANGE}
            out[gate_name][model] = entry
    write_json(args.out, out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    system, params, _, meta = _load_pulse_file(args.pulse)
    resolution = meta.get("steps_per_ns") if args.steps_per_ns is None else args.steps_per_ns
    traj = propagate(system, params, resolution)
    n_times, n_states, n_cols = traj.states.shape
    header = ["time_ns"]
    header += [f"pop_c{c}_s{s}" for c in range(n_cols) for s in range(n_states)]
    header += [f"guard_c{c}" for c in range(n_cols)]
    header += ["guard_avg"]
    pops = (np.abs(traj.states) ** 2).transpose(0, 2, 1).reshape(n_times, -1)
    table = np.column_stack([traj.times, pops, traj.guard_pop, guard_populations(traj)])
    _write_csv(args.out, header, [[repr(float(x)) for x in row] for row in table])
    print(f"wrote {args.out} ({len(traj.times)} samples)")
    return EXIT_OK


def cmd_export_lab(args) -> int:
    system, params, _, _ = _load_pulse_file(args.pulse)
    samples = params.T * args.sample_rate
    if not math.isfinite(samples):
        raise CliError(f"--sample-rate {args.sample_rate} gives a non-finite sample count")
    n_samples = int(round(samples)) + 1
    times = _sized_by("--sample-rate", args.sample_rate, np.linspace, 0.0, params.T, n_samples)
    amplitudes = pulse_mod.lab_frame_control(params, system.omega_rot, times)
    table = np.column_stack([times, amplitudes.T])
    header = ["time_ns"] + [f"f_{k}" for k in range(params.num_controls)]
    _write_csv(args.out, header, [[repr(float(x)) for x in row] for row in table])
    print(f"wrote {args.out} ({n_samples} samples)")
    return EXIT_OK


def _load_pulse_file(path: str):
    try:
        return load_pulse(path)
    except OSError as exc:
        raise CliError(f"cannot read pulse JSON: {exc}") from exc
    except (KeyError, ValueError) as exc:
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
    p_sim.add_argument("--steps-per-ns", type=int, help="default: the pulse's steps_per_ns")
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
    except (CliError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (PropagationError, OptimizerAbort) as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
