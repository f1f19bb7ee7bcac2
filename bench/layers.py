"""Per-layer metrics from the spans of one traced operation.

Counts and busy times are measured where the work happens, at the calls into
each module's public functions.  A layer the workload does not exercise
reads 0 calls and 0 s; a ratio whose base is 0 reads 0.  A target that no
longer exists in the library (``Tracer.missing``) reads None.
"""

from __future__ import annotations

from collections import defaultdict

from spans import Span, self_times

FUNCTIONS = (
    "pulse.eval_controls",
    "pulse.basis_matrix",
    "pulse.refit",
    "dynamics.eigh",
    "dynamics.step_unitaries",
    "dynamics.propagate_sequence",
    "objective.objective_parts",
    "objective.value_and_gradient",
)
MATRIX_LABELS = ("1q_d2", "1q_d4", "2q_d2", "2q_d3")

PER_LAYER = {
    **{f"{f}.{kind}": unit for f in FUNCTIONS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "dynamics.eigh.matrices": "count",
    "dynamics.eigh.dim": "1",
    **{f"eval.forward_s.{label}": "s" for label in MATRIX_LABELS},
    **{f"eval.gradient_s.{label}": "s" for label in MATRIX_LABELS},
    "optimize.minimize.calls": "count",
    "optimize.iterations": "count",
    "optimize.converged": "count",
    "optimize.forward_per_gradient": "1",
    "optimize.accept_ratio": "1",
    "ipr.attempts": "count",
    "ipr.attempts_success": "count",
    "ipr.search.busy_s": "s",
    "ipr.search.wait_s": "s",
    "ipr.multi_run.workers": "count",
    "ipr.multi_run.efficiency": "1",
    "ipr.multi_run.speedup": "1",
    "trace.wall_s": "s",
}


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], missing: list[str], matrix: dict,
                  serial_wall: float | None) -> dict:
    """Metrics named in PER_LAYER except ``trace.wall_s``.

    ``matrix`` maps a baseline-system label to its median (forward, gradient)
    seconds; ``serial_wall`` is the one-worker wall time of the multi-start
    search, or None when it was not measured (speed-up then reads 0).
    """
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def present(name: str) -> bool:
        return name not in missing

    def total(name: str, value) -> float | None:
        return sum(value(s) for s in by_name[name]) if present(name) else None

    m: dict = {}
    for f in FUNCTIONS:
        m[f"{f}.calls"] = total(f, lambda s: 1)
        m[f"{f}.self_s"] = total(f, lambda s: selfs[s.id])
    m["dynamics.eigh.matrices"] = total("dynamics.eigh", lambda s: s.info["matrices"])
    m["dynamics.eigh.dim"] = (max((s.info["dim"] for s in by_name["dynamics.eigh"]), default=0)
                              if present("dynamics.eigh") else None)
    for label in MATRIX_LABELS:
        fwd, grad = matrix[label]
        m[f"eval.forward_s.{label}"] = fwd
        m[f"eval.gradient_s.{label}"] = grad

    m["optimize.minimize.calls"] = total("optimize.minimize", lambda s: 1)
    m["optimize.iterations"] = total("optimize.minimize", lambda s: s.info["iterations"])
    m["optimize.converged"] = total("optimize.minimize", lambda s: int(s.info["converged"]))
    forwards = m["objective.objective_parts.calls"]
    m["optimize.forward_per_gradient"] = _ratio(forwards, m["objective.value_and_gradient.calls"])
    m["optimize.accept_ratio"] = _ratio(m["optimize.iterations"], forwards)

    m["ipr.attempts"] = total("ipr.ipr_run", lambda s: s.info["attempts"])
    m["ipr.attempts_success"] = total("ipr.ipr_run", lambda s: s.info["attempts_success"])
    busy = total("ipr.ipr_run", lambda s: s.thread_cpu)
    m["ipr.search.busy_s"] = busy
    m["ipr.search.wait_s"] = total("ipr.ipr_run", lambda s: s.duration - s.thread_cpu)

    if not (present("ipr.multi_run") and present("ipr.ipr_run")):
        workers = efficiency = speedup = None
    elif not by_name["ipr.multi_run"]:
        workers, efficiency, speedup = 0, 0.0, 0.0
    else:
        multi = by_name["ipr.multi_run"][0]
        workers = len({s.thread for s in by_name["ipr.ipr_run"] if s.thread != multi.thread})
        efficiency = _ratio(busy, max(workers, 1) * multi.duration)
        speedup = 0.0 if serial_wall is None else serial_wall / multi.duration
    m["ipr.multi_run.workers"] = workers
    m["ipr.multi_run.efficiency"] = efficiency
    m["ipr.multi_run.speedup"] = speedup
    return m
