"""The benchmark's workloads: inputs made from a seed, the timed operation and
the output checks.  All checks run on stored outputs after the timed region.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import quditpulse as qp
from quditpulse.dynamics import PropagationError, default_steps_per_ns, system_operators
from quditpulse.ipr import IPRConfig, standard_optimizer
from quditpulse.model import GateSpec, QuditSystem, embed_target
from quditpulse.optimize import OptimizerAbort
from quditpulse.pulse import PulseParams, default_params, random_guess

OBJECTIVE = qp.ObjectiveConfig()

# Output checks.
FD_REL_TOL = 1e-5  # adjoint directional derivative against central differences
FD_STEP_FRACTION = 1e-4  # central-difference step, as a share of alpha_max
RESOLUTION_TOL = 1e-3  # |infidelity at 2x steps/ns - reported infidelity|

# The ROADMAP baseline systems with fixed random pulses at 0.3*alpha_max.
# Repeat counts give each system a comparable share of a ~10 s sweep: on a
# 2-core Xeon a 1q d=2 forward / gradient takes about 10 ms / 50-140 ms, a
# 2q d=3 one 1.0-1.5 s / 2.5-3.7 s.
# Columns: label, qudits, d, gate, T (ns), forward repeats, gradient repeats.
MATRIX = (
    ("1q_d2", 1, 2, "X_d", 40.0, 50, 12),
    ("1q_d4", 1, 4, "X_d", 100.0, 9, 7),
    ("2q_d2", 2, 2, "CNOT", 100.0, 3, 2),
    ("2q_d3", 2, 3, "SWAP_d", 150.0, 1, 1),
)
MATRIX_AMPLITUDE = 0.3
# Smaller repeat counts for the per-system table of a traced run.
TRACE_MATRIX_REPEATS = {"1q_d2": (3, 2), "1q_d4": (2, 1), "2q_d2": (1, 1), "2q_d3": (1, 1)}

# Criterion 7 of the acceptance suite: H_d, d=2, 10 starts plus the pilot.
IPR_STARTS = 10
IPR_CONFIG_SEED = 1234
IPR_MAX_ITER = 500

# A 2-qudit run to 99.9% does not finish in benchmark time, so the CNOT
# optimization stops after a fixed number of iterations.  Four, because the
# line search of the fifth takes 1 to 17 forward evaluations depending on the
# start pulse, while the first four take 8 to 11 in all.
CNOT_ITERATIONS = 4


@dataclass(frozen=True, eq=False)
class EvalCase:
    label: str
    sys: QuditSystem
    target: GateSpec
    params: PulseParams
    n_forward: int
    n_gradient: int


@dataclass
class CaseTiming:
    case: EvalCase
    forward_s: list
    values: list
    gradient_s: list
    gradients: list


@dataclass
class Checked:
    """Outcome of the output checks: operations checked and why any failed."""

    ops: int = 0
    failures: list = field(default_factory=list)
    infidelity_ref: float = math.nan

    def fail(self, message: str) -> None:
        self.failures.append(message)


def _random_pulse(sys: QuditSystem, T: float, scale: float, rng) -> PulseParams:
    params = default_params(sys, T)
    return params.with_alpha(random_guess(params, scale, rng))


def _system(num_qudits: int, d: int) -> QuditSystem:
    sys = qp.transmon_system(num_qudits=num_qudits, d=d, guard=2)
    system_operators(sys)  # first-call operator cache, part of set-up
    return sys


def matrix_cases(rng, repeats: dict | None = None) -> list[EvalCase]:
    cases = []
    for label, nq, d, gate_name, T, n_fwd, n_grad in MATRIX:
        if repeats is not None:
            n_fwd, n_grad = repeats[label]
        sys = _system(nq, d)
        params = _random_pulse(sys, T, MATRIX_AMPLITUDE, rng)
        cases.append(EvalCase(label, sys, qp.gate(gate_name, d), params, n_fwd, n_grad))
    return cases


def time_cases(cases: list[EvalCase]) -> list[CaseTiming]:
    """Time each forward-only and each gradient evaluation separately."""
    out = []
    for c in cases:
        fwd_t, values = [], []
        for _ in range(c.n_forward):
            t0 = time.perf_counter()
            values.append(qp.objective(c.sys, c.params, c.target, OBJECTIVE))
            fwd_t.append(time.perf_counter() - t0)
        grad_t, grads = [], []
        for _ in range(c.n_gradient):
            t0 = time.perf_counter()
            grads.append(qp.gradient(c.sys, c.params, c.target, OBJECTIVE))
            grad_t.append(time.perf_counter() - t0)
        out.append(CaseTiming(c, fwd_t, values, grad_t, grads))
    return out


def per_case_medians(timings: list[CaseTiming]) -> dict[str, tuple[float, float]]:
    """label -> (median forward seconds, median gradient seconds) over all samples."""
    pooled: dict[str, tuple[list, list]] = {}
    for t in timings:
        fwd, grad = pooled.setdefault(t.case.label, ([], []))
        fwd.extend(t.forward_s)
        grad.extend(t.gradient_s)
    return {k: (statistics.median(f), statistics.median(g)) for k, (f, g) in pooled.items()}


def infidelity(sys: QuditSystem, target: GateSpec, params: PulseParams,
               steps_per_ns: int) -> float:
    """Trace infidelity 1 - |<V, U>|^2 / h^2, computed here from the propagator."""
    traj = qp.propagate(sys, params, steps_per_ns=steps_per_ns, store_trajectory=False)
    overlap = np.vdot(embed_target(target, sys), traj.states[-1])
    return float(1.0 - abs(overlap) ** 2 / sys.dim_essential**2)


def infidelity_ref(sys: QuditSystem, target: GateSpec, params: PulseParams) -> float:
    """Infidelity at twice the default integrator resolution."""
    return infidelity(sys, target, params, 2 * default_steps_per_ns(sys))


def check_cases(timings: list[CaseTiming], rng, checked: Checked) -> None:
    """Each evaluation is one operation: finite values, and every gradient's
    directional derivative along one seeded random direction agrees with a
    central difference of ``objective`` to FD_REL_TOL (one per case)."""
    pooled: dict[EvalCase, tuple[list, list]] = {}
    for t in timings:
        values, gradients = pooled.setdefault(t.case, ([], []))
        values.extend(t.values)
        gradients.extend(t.gradients)
    for c, (values, gradients) in pooled.items():
        for v in values:
            checked.ops += 1
            if not math.isfinite(v):
                checked.fail(f"{c.label}: non-finite objective {v}")
        if not gradients:
            continue
        direction = rng.standard_normal(c.params.alpha.size)
        direction[c.params.boundary_mask()] = 0.0
        direction /= np.linalg.norm(direction)
        h = FD_STEP_FRACTION * c.params.alpha_max
        plus = qp.objective(c.sys, c.params.with_alpha(c.params.alpha + h * direction),
                            c.target, OBJECTIVE)
        minus = qp.objective(c.sys, c.params.with_alpha(c.params.alpha - h * direction),
                             c.target, OBJECTIVE)
        fd = (plus - minus) / (2.0 * h)
        for g in gradients:
            checked.ops += 1
            if not np.all(np.isfinite(g)):
                checked.fail(f"{c.label}: non-finite gradient")
                continue
            dd = float(g @ direction)
            rel = abs(dd - fd) / max(abs(fd), abs(dd), 1e-300)
            if not rel <= FD_REL_TOL:
                checked.fail(f"{c.label}: directional derivative {dd!r} vs "
                             f"central difference {fd!r} (rel {rel:.2e})")


class Workload:
    """Inputs for one workload; ``op`` is the timed operation."""

    name = ""

    def __init__(self, seed: int):
        self.inputs, checks = np.random.SeedSequence(seed).spawn(2)
        self.check_rng = np.random.default_rng(checks)
        self.build(np.random.default_rng(self.inputs))

    def system_table(self, checked: Checked) -> dict[str, tuple[float, float]]:
        """Median seconds per forward and gradient call on the baseline systems,
        with the pulses ``eval_matrix`` draws at this seed; the calls are checked."""
        cases = matrix_cases(np.random.default_rng(self.inputs), TRACE_MATRIX_REPEATS)
        timings = time_cases(cases)
        check_cases(timings, self.check_rng, checked)
        return per_case_medians(timings)

    def build(self, rng) -> None:
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def check(self, outputs: list) -> Checked:
        checked = Checked()
        self.check_outputs(outputs, checked)
        return checked

    def check_outputs(self, outputs: list, checked: Checked) -> None:
        raise NotImplementedError

    def summary(self, outputs: list) -> dict:
        return {}


class IprMultistart(Workload):
    name = "ipr_h2_multistart"

    def build(self, rng) -> None:
        self.sys = _system(1, 2)
        self.target = qp.gate("H_d", 2)
        # The criterion-7 search on every benchmark seed: the search's cost is
        # heavy-tailed in its own seed (a 2-core Xeon took 42 s, 58 s and 117 s
        # for search seeds 1, 2 and 3), which no fixed run budget absorbs.
        self.config = IPRConfig(T_start=50.0, guess_scale=0.01, seed=IPR_CONFIG_SEED)
        self.optimizer = standard_optimizer(OBJECTIVE, max_iter=IPR_MAX_ITER)

    def op(self, t_ref=None):
        return qp.multi_run(self.sys, self.target, self.config, IPR_STARTS,
                            t_ref=t_ref, optimizer=self.optimizer)

    def check_outputs(self, outputs, checked) -> None:
        """Each search is one operation: it must find a duration whose best
        pulse still meets the error threshold at 2x steps/ns."""
        refs = []
        for result in outputs:
            for search in (s for s in (result.pilot, *result.results) if s is not None):
                checked.ops += 1
                if not search.succeeded:
                    checked.fail("search found no duration")
                    continue
                params = default_params(self.sys, search.T_best).with_alpha(search.alpha_best)
                ref = infidelity_ref(self.sys, self.target, params)
                refs.append(ref)
                if not ref <= self.config.error_threshold:
                    checked.fail(f"T={search.T_best}: infidelity {ref:.3e} at 2x steps/ns")
        checked.infidelity_ref = max(refs) if refs else math.nan

    def summary(self, outputs) -> dict:
        r = outputs[0]
        return {"t_min_ns": r.t_min, "t_mean_ns": r.t_mean, "t_std_ns": r.t_std,
                "durations_ns": [s.T_best for s in r.results]}


class CnotBudget(Workload):
    name = "opt_cnot_budget"

    def build(self, rng) -> None:
        self.sys = _system(2, 2)
        self.target = qp.gate("CNOT", 2)
        self.params0 = _random_pulse(self.sys, 100.0, 0.01, rng)

    def op(self):
        try:
            return qp.minimize(self.sys, self.params0, self.target, OBJECTIVE,
                               max_iter=CNOT_ITERATIONS)
        except (OptimizerAbort, PropagationError) as exc:
            return exc

    def check_outputs(self, outputs, checked) -> None:
        """Each optimization is one operation: no abort, finite output, and the
        reported infidelity holds at 2x steps/ns to RESOLUTION_TOL."""
        refs = []
        for result in outputs:
            checked.ops += 1
            if isinstance(result, Exception):
                checked.fail(f"optimizer aborted: {result}")
                continue
            if not (math.isfinite(result.fidelity) and np.all(np.isfinite(result.alpha_final))):
                checked.fail("non-finite optimizer result")
                continue
            ref = infidelity_ref(self.sys, self.target, self.params0.with_alpha(result.alpha_final))
            refs.append(ref)
            if not abs(ref - (1.0 - result.fidelity)) <= RESOLUTION_TOL:
                checked.fail(f"infidelity {1.0 - result.fidelity:.6f} is {ref:.6f} "
                             "at 2x steps/ns")
        checked.infidelity_ref = statistics.median(refs) if refs else math.nan

    def summary(self, outputs) -> dict:
        r = outputs[0]
        if isinstance(r, Exception):
            return {}
        return {"iterations": r.iterations, "infidelity": 1.0 - r.fidelity}


class EvalMatrix(Workload):
    name = "eval_matrix"

    def build(self, rng) -> None:
        self.cases = matrix_cases(rng)

    def op(self):
        return time_cases(self.cases)

    def check_outputs(self, outputs, checked) -> None:
        check_cases([t for sweep in outputs for t in sweep], self.check_rng, checked)
        checked.infidelity_ref = statistics.fmean(
            infidelity_ref(c.sys, c.target, c.params) for c in self.cases
        )

    def summary(self, outputs) -> dict:
        return {"per_system_s": per_case_medians([t for sweep in outputs for t in sweep])}


WORKLOADS = {w.name: w for w in (IprMultistart, CnotBudget, EvalMatrix)}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
