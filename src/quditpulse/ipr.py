"""Incremental pulse re-seeding: searching for the shortest viable duration.

Each fixed-duration optimization seeds the next one with a refitted
(truncated or extended) copy of its pulse instead of a fresh random guess:

* success at T: remember it as the best duration, step down, and re-seed
  with the truncated pulse;
* failure after some success: halve the step and work downwards from the
  best duration again, stopping once the step would drop below the
  granularity;
* failure before any success with improving fidelity: extend the duration
  and re-seed with the stretched pulse;
* failure before any success with decreasing fidelity: restart from the
  best-fidelity duration with a fresh random guess (bounded number of
  restarts).

An attempt succeeds when ``1 - fidelity`` lies strictly below the error
threshold.  That is not the test ``minimize`` stops on, which compares the
search-grid infidelity: the real optimizer's ``fidelity`` is the certificate's.

The optimizer is injected as a callable so the state machine can be driven
by mocks in tests.  The real one, ``standard_optimizer``, searches on a
coarse grid and claims on the fine one: ``minimize`` runs at
1/``SEARCH_DIVISOR`` of the claim resolution (the ``steps_per_ns`` it is
given, else ``dynamics.default_steps_per_ns``), and its result counts only
if a certificate holds: the infidelity, recomputed by ``propagate``, is
below the threshold at the claim resolution and at twice it.  The reported
fidelity is ``1 - max`` of the certificate's values.  A coarse run that
converged but misses the threshold at the claim resolution continues there
from its own ``alpha``; the attempt's history and counts cover both runs.  A
converged run that fails the certificate is reported as ``uncertified``.

``multi_run`` runs its searches on a pool of forked worker processes that
lives only inside the call; ``QUDITPULSE_THREADS`` sets the worker count.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .dynamics import default_steps_per_ns, propagate
from .model import GateSpec, QuditSystem, embed_target
from .objective import ObjectiveConfig, trace_infidelity
from .optimize import OptResult, minimize
from .pulse import PulseParams, default_params, random_guess, refit

THREADS_ENV_VAR = "QUDITPULSE_THREADS"
# A worker process checks this often whether its parent is gone, and exits if so.
PARENT_POLL_S = 0.5

# multi_run draws each start duration uniformly from [LOW, HIGH] * t_ref.
START_SAMPLE_LOW, START_SAMPLE_HIGH = 0.8, 1.2

# The search resolution is the claim resolution divided by this.  At 1/4 of
# the default resolution the Strang step moves the infidelity of a 1q d=2,
# 100 ns pulse at 0.3*alpha_max by 2.7e-5 against 640 steps/ns, far inside
# the 1e-3 threshold; the certificate catches any pulse where it is not.
SEARCH_DIVISOR = 4

Optimizer = Callable[[QuditSystem, PulseParams, GateSpec], OptResult]


@dataclass(frozen=True)
class IPRConfig:
    """Search parameters for one incremental re-seeding run."""

    T_start: float
    step: float | None = None  # default: power of two nearest 0.1*T_start
    granularity: float = 1.0
    guess_scale: float = 0.01
    max_restarts: int = 5
    max_attempts: int = 200  # safety budget; the flowchart alone need not terminate
    error_threshold: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.T_start) and self.T_start > 0):
            raise ValueError("T_start must be a finite number > 0")
        if not (math.isfinite(self.granularity) and self.granularity > 0):
            raise ValueError("granularity must be a finite number > 0")
        if self.step is not None and not (math.isfinite(self.step) and self.step >= self.granularity):
            raise ValueError("step must be finite and at least the granularity")
        if not 0.0 < self.error_threshold < 1.0:
            raise ValueError("error_threshold must lie in (0, 1)")
        if self.max_restarts < 0 or self.max_attempts < 1:
            raise ValueError("invalid restart/attempt budget")


@dataclass(frozen=True)
class IPRRecord:
    """One optimizer attempt in the search."""

    index: int
    T: float
    fidelity: float
    success: bool
    seed_kind: str  # random | truncated | extended
    step_at_attempt: float
    reason: str  # why the optimizer stopped (OptResult.reason), or "uncertified"
    n_forward: int
    n_gradient: int


@dataclass
class IPRResult:
    """Final state of a search: best duration found and the attempt ledger."""

    T_best: float | None
    alpha_best: np.ndarray | None
    fidelity_best: float
    records: list[IPRRecord] = field(default_factory=list)
    restarts_used: int = 0

    @property
    def succeeded(self) -> bool:
        return self.T_best is not None


def nearest_power_of_two_step(T_start: float, granularity: float = 1.0) -> float:
    """Default duration step: the power of two nearest to 0.1*T_start."""
    x = 0.1 * T_start
    if x <= 1.0:
        step = 1.0
    else:
        lo = 2.0 ** math.floor(math.log2(x))
        hi = 2.0 * lo
        step = hi if (x - lo) >= (hi - x) else lo
    return max(step, granularity)


def _snap(x: float, granularity: float) -> float:
    return math.floor(x / granularity + 0.5) * granularity


def _halve_step(step: float, granularity: float) -> float | None:
    units = math.floor(step / (2.0 * granularity) + 1e-9)
    return units * granularity if units >= 1 else None


def _next_lower(t_best: float, step: float, granularity: float):
    """Duration/step for the next attempt below t_best, or None to stop.

    Keeps durations at or above the granularity by halving the step as
    needed.
    """
    while t_best - step < granularity - 1e-9:
        halved = _halve_step(step, granularity)
        if halved is None:
            return None
        step = halved
    return t_best - step, step


def meets_threshold(fidelity: float, error_threshold: float) -> bool:
    """The one success test: infidelity ``1 - fidelity`` strictly below the threshold."""
    return 1.0 - fidelity < error_threshold


def search_resolution(claim_steps_per_ns: int) -> int:
    """Steps per ns the search optimizes at, for a claim resolution."""
    return max(1, claim_steps_per_ns // SEARCH_DIVISOR)


def _infidelity(sys: QuditSystem, params: PulseParams, target: GateSpec,
                steps_per_ns: int) -> float:
    final = propagate(sys, params, steps_per_ns, store_trajectory=False).states[-1]
    return trace_infidelity(final, embed_target(target, sys), sys.dim_essential)


@dataclass(frozen=True)
class StandardOptimizer:
    """The real fixed-duration optimizer: a coarse search, a certified claim.

    A frozen dataclass of picklable fields, so it can be sent to a worker
    process.  See the module docstring for the search and the certificate.
    """

    cfg: ObjectiveConfig
    max_iter: int | None = None
    steps_per_ns: int | None = None

    def certificate(self, sys: QuditSystem, params: PulseParams,
                    target: GateSpec, claim: int) -> list[float]:
        """Infidelity at the claim resolution and, only if that passes, at 2x it."""
        values = [_infidelity(sys, params, target, claim)]
        if values[0] < self.cfg.error_threshold:
            values.append(_infidelity(sys, params, target, 2 * claim))
        return values

    def __call__(self, sys: QuditSystem, params: PulseParams, target: GateSpec) -> OptResult:
        claim = default_steps_per_ns(sys) if self.steps_per_ns is None else self.steps_per_ns
        runs: list[OptResult] = []
        # Continue at the claim resolution (not again if it is the search's) only
        # after a converged run that misses there; from a pass, minimize stops at once.
        for resolution in dict.fromkeys((search_resolution(claim), claim)):
            result = minimize(sys, params, target, self.cfg, self.max_iter, resolution)
            runs.append(result)
            params = params.with_alpha(result.alpha_final)
            values = self.certificate(sys, params, target, claim)
            if not result.converged or values[0] < self.cfg.error_threshold:
                break
        fidelity = 1.0 - max(values)
        reason = result.reason
        if reason == "converged" and not meets_threshold(fidelity, self.cfg.error_threshold):
            reason = "uncertified"
        return replace(result, fidelity=fidelity, reason=reason,
                       objective_history=[v for run in runs for v in run.objective_history],
                       iterations=sum(run.iterations for run in runs),
                       n_forward=sum(run.n_forward for run in runs),
                       n_gradient=sum(run.n_gradient for run in runs))


def standard_optimizer(
    cfg: ObjectiveConfig | None = None,
    max_iter: int | None = None,
    steps_per_ns: int | None = None,
) -> Optimizer:
    """The real fixed-duration optimizer bound to its configuration."""
    return StandardOptimizer(cfg or ObjectiveConfig(), max_iter, steps_per_ns)


def threshold_mock_optimizer(t_threshold: float) -> Optimizer:
    """Mock that succeeds exactly for durations >= t_threshold.

    Below the threshold it reports a fidelity increasing monotonically with
    duration, so the state machine follows its extension branch.
    """

    def run(sys, params, target) -> OptResult:
        if params.T >= t_threshold:
            fid = 0.9995
        else:
            fid = 0.999 * params.T / t_threshold
        return OptResult(
            alpha_final=params.alpha.copy(),
            fidelity=fid,
            objective_history=[1.0 - fid],
            iterations=1,
            reason="converged" if params.T >= t_threshold else "max_iter",
        )

    return run


def ipr_run(
    sys: QuditSystem,
    target: GateSpec,
    cfg: IPRConfig,
    optimizer: Optimizer,
) -> IPRResult:
    """Run the incremental re-seeding search for one gate."""
    granularity = cfg.granularity
    step = cfg.step if cfg.step is not None else nearest_power_of_two_step(
        cfg.T_start, granularity
    )
    step = _snap(step, granularity)
    t_current = max(_snap(cfg.T_start, granularity), granularity)
    rng = np.random.default_rng(cfg.seed)

    def fresh_guess(T: float) -> PulseParams:
        """The first attempt's and every restart's seed: one draw from ``rng``."""
        params = default_params(sys, T)
        return params.with_alpha(random_guess(params, cfg.guess_scale, rng))

    params = fresh_guess(t_current)
    seed_kind = "random"

    records: list[IPRRecord] = []
    best: IPRRecord | None = None  # the last success: its duration and fidelity
    best_params: PulseParams | None = None
    prev_fidelity: float | None = None
    best_failed_t = t_current
    restarts = 0

    while len(records) < cfg.max_attempts:
        result = optimizer(sys, params, target)
        fidelity = result.fidelity
        success = meets_threshold(fidelity, cfg.error_threshold)
        records.append(
            IPRRecord(
                len(records), t_current, fidelity, success, seed_kind, step,
                result.reason, result.n_forward, result.n_gradient,
            )
        )

        if success or best is not None:
            # Step down from the best duration; a failure halves the step first.
            if success:
                best = records[-1]
                best_params = params.with_alpha(result.alpha_final)
            else:
                step = _halve_step(step, granularity)
                if step is None:
                    break
            nxt = _next_lower(best.T, step, granularity)
            if nxt is None:
                break
            t_current, step = nxt
            params = refit(best_params, t_current)
            seed_kind = "truncated"
        elif prev_fidelity is None or fidelity > prev_fidelity:
            best_failed_t = t_current
            prev_fidelity = fidelity
            t_current = t_current + step
            params = refit(params.with_alpha(result.alpha_final), t_current)
            seed_kind = "extended"
        elif restarts < cfg.max_restarts:
            restarts += 1
            t_current = best_failed_t
            params = fresh_guess(t_current)
            seed_kind = "random"
            prev_fidelity = None
        else:
            break

    if best is None:
        best_fid = max((r.fidelity for r in records), default=0.0)
        return IPRResult(None, None, best_fid, records, restarts)
    return IPRResult(best.T, best_params.alpha, best.fidelity, records, restarts)


@dataclass
class MultiRunResult:
    """Aggregate of several independent searches with sampled start times.

    ``configs[i]`` is the per-run configuration that produced ``results[i]``.
    """

    results: list[IPRResult]
    configs: list[IPRConfig]
    t_ref: float
    t_min: float | None
    t_mean: float | None
    t_std: float | None
    fidelity_best: float
    pilot: IPRResult | None = None


def _worker_count(n_runs: int) -> int:
    """Worker processes for n_runs searches: QUDITPULSE_THREADS, else the
    usable CPUs, and never more than n_runs."""
    env = os.environ.get(THREADS_ENV_VAR)
    if env and not (env.isdecimal() and int(env) >= 1):
        raise ValueError(f"{THREADS_ENV_VAR} must be a positive integer, got {env!r}")
    if env:
        return min(int(env), n_runs)
    if hasattr(os, "sched_getaffinity"):
        return min(len(os.sched_getaffinity(0)), n_runs)
    return min(os.cpu_count() or 1, n_runs)


# A worker process's search inputs, set once by _start_worker.
_worker_job: tuple[QuditSystem, GateSpec, Optimizer] | None = None


def _start_worker(parent: int, sys: QuditSystem, target: GateSpec,
                  optimizer: Optimizer) -> None:
    """Pool initializer: keep the search inputs and exit once the parent dies.

    Under ``fork`` the arguments reach the worker unpickled, so any
    optimizer, closures included, works.
    """
    global _worker_job
    _worker_job = (sys, target, optimizer)

    def watch_parent() -> None:
        while os.getppid() == parent:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch_parent, daemon=True).start()


def _worker_search(cfg: IPRConfig) -> IPRResult:
    sys, target, optimizer = _worker_job
    return ipr_run(sys, target, cfg, optimizer)


def _pool_searches(sys: QuditSystem, target: GateSpec, optimizer: Optimizer,
                   configs: list[IPRConfig], workers: int) -> list[IPRResult]:
    """ipr_run for each config on a fork pool that is joined before returning."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             initializer=_start_worker,
                             initargs=(os.getpid(), sys, target, optimizer)) as pool:
        try:
            return list(pool.map(_worker_search, configs))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def multi_run(
    sys: QuditSystem,
    target: GateSpec,
    base_cfg: IPRConfig,
    n_runs: int,
    t_ref: float | None = None,
    optimizer: Optimizer | None = None,
) -> MultiRunResult:
    """Repeat ipr_run with start times sampled around a reference duration.

    ``t_ref`` defaults to the outcome of a pilot run at base_cfg.T_start;
    the pilot runs in this process.  The searches run on ``_worker_count``
    forked processes, created and joined inside this call, or serially here
    with one worker or where ``fork`` is unavailable.  If a search raises,
    the pending ones are cancelled and the exception propagates.  The summary
    is computed on results sorted by (duration, seed), so it does not depend
    on the worker count or on scheduling.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    workers = _worker_count(n_runs)
    if optimizer is None:
        optimizer = standard_optimizer()

    pilot = None
    if t_ref is None:
        pilot = ipr_run(sys, target, base_cfg, optimizer)
        t_ref = pilot.T_best if pilot.succeeded else base_cfg.T_start

    children = np.random.SeedSequence(base_cfg.seed).spawn(n_runs)
    configs = []
    for child in children:
        rng = np.random.default_rng(child)
        t_start = rng.uniform(START_SAMPLE_LOW * t_ref, START_SAMPLE_HIGH * t_ref)
        t_start = max(_snap(t_start, base_cfg.granularity), base_cfg.granularity)
        configs.append(
            replace(
                base_cfg,
                T_start=t_start,
                step=None,
                seed=int(child.generate_state(1)[0]),
            )
        )

    if workers > 1 and hasattr(os, "fork"):
        results = _pool_searches(sys, target, optimizer, configs, workers)
    else:
        results = [ipr_run(sys, target, c, optimizer) for c in configs]

    ranked = sorted(zip(results, configs),
                    key=lambda rc: (rc[0].T_best if rc[0].succeeded else math.inf, rc[1].seed))
    results = [r for r, _ in ranked]
    configs = [c for _, c in ranked]

    durations = [r.T_best for r in results if r.succeeded]
    fid_best = max((r.fidelity_best for r in results), default=0.0)
    if durations:
        t_min = float(min(durations))
        t_mean = float(np.mean(durations))
        t_std = float(np.std(durations, ddof=1)) if len(durations) > 1 else 0.0
    else:
        t_min = t_mean = t_std = None
    return MultiRunResult(results, configs, t_ref, t_min, t_mean, t_std, fid_best, pilot)
