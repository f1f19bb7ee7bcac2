"""Bounded minimization of the pulse objective at a fixed duration.

A projected limited-memory quasi-Newton method: search directions come
from the standard two-loop recursion, steps are taken along the projection
arc onto the box |alpha_i| <= alpha_max (with boundary splines held at
zero), and step lengths are chosen by backtracking until the Armijo
sufficient-decrease condition holds.  Every accepted value is strictly
lower than the last, so the final iterate is the best one seen.

A run stops for one of five reasons, recorded in ``OptResult.reason``:

* ``converged``: the trace infidelity fell below the error threshold;
* ``max_iter``: the iteration budget ran out;
* ``stalled``: an accepted step lowered the objective by at most
  ``FTOL * max(|f_k|, |f_k+1|, 1)`` (L-BFGS-B's relative-decrease stop);
* ``kkt``: the projected gradient vanished;
* ``no_descent``: no search direction passed the Armijo test within
  ``MAX_LINE_SEARCH`` trial steps.

Every evaluation is one ``objective.forward`` pass; the accepted line-search
candidate's cache goes to ``objective.backward``, so a step costs no extra
forward sweep and Armijo tests and the history use the same values.  A
trial step that the box projection maps onto the candidate just rejected
is rejected again without a forward pass, so ``OptResult.n_forward``
counts the forwards that ran, which can be fewer than the trial steps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .model import GateSpec, QuditSystem
from .objective import ForwardCache, ObjectiveConfig, backward, forward
# Unused here: the benchmark tracer and bench/test_bench.py look it up in this module.
from .objective import objective_parts  # noqa: F401
from .pulse import PulseParams

LBFGS_MEMORY = 10
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
MIN_BACKTRACK = 1e-14
MAX_LINE_SEARCH = 20  # trial steps per search direction
FTOL = 1e7 * np.finfo(float).eps  # relative decrease below which a run has stalled
PROJECTED_GRAD_TOL = 1e-9

MAX_ITER_SINGLE = 500
MAX_ITER_TWO = 1000


class OptimizerAbort(RuntimeError):
    """Raised when the objective turns non-finite during optimization."""


@dataclass
class OptResult:
    """Outcome of one fixed-duration optimization run."""

    alpha_final: np.ndarray
    fidelity: float
    # One (iteration, objective, infidelity, guard_penalty, step_size) row per
    # accepted step; the start point has none.
    history: list[tuple] = field(default_factory=list)
    iterations: int = 0
    reason: str = ""  # converged | max_iter | stalled | kkt | no_descent
    n_forward: int = 0
    n_gradient: int = 0

    @property
    def converged(self) -> bool:
        return self.reason == "converged"


def default_max_iter(sys: QuditSystem) -> int:
    return MAX_ITER_SINGLE if sys.num_qudits == 1 else MAX_ITER_TWO


def _two_loop(grad: np.ndarray, memory: deque) -> np.ndarray:
    """L-BFGS two-loop recursion for the search direction -H*grad."""
    direction = -grad.copy()
    if not memory:
        return direction
    alphas = []
    for s, y, rho in reversed(memory):
        a = rho * (s @ direction)
        alphas.append(a)
        direction -= a * y
    s_last, y_last, _ = memory[-1]
    direction *= (s_last @ y_last) / (y_last @ y_last)
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        b = rho * (y @ direction)
        direction += (a - b) * s
    return direction


def minimize(
    sys: QuditSystem,
    params0: PulseParams,
    target: GateSpec,
    cfg: ObjectiveConfig,
    max_iter: int | None = None,
    steps_per_ns: int | None = None,
) -> OptResult:
    """Minimize the pulse objective over alpha within the amplitude box.

    Terminates, in this order of precedence after each accepted step, when
    the trace infidelity drops below cfg.error_threshold (``converged``),
    the objective decreased by no more than FTOL relative (``stalled``), or
    the projected gradient vanishes (``kkt``); before a step, when the
    iteration budget is exhausted (``max_iter``) or no line search passes
    the Armijo test within MAX_LINE_SEARCH trial steps (``no_descent``).
    """
    if max_iter is None:
        max_iter = default_max_iter(sys)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    pinned = params0.boundary_mask()
    bound = params0.alpha_max

    def project(vec: np.ndarray) -> np.ndarray:
        out = np.clip(vec, -bound, bound)
        out[pinned] = 0.0
        return out

    def evaluate(alpha: np.ndarray) -> ForwardCache:
        cache = forward(sys, params0.with_alpha(alpha), target, cfg, steps_per_ns)
        if not np.isfinite(cache.total):
            raise OptimizerAbort(f"objective became non-finite ({cache.total})")
        return cache

    def evaluate_grad(cache: ForwardCache) -> np.ndarray:
        grad = backward(cache)
        if not np.all(np.isfinite(grad)):
            raise OptimizerAbort("gradient became non-finite")
        return grad

    x = project(params0.alpha.copy())
    cache = evaluate(x)
    tried = x  # the point ``cache`` holds
    value, infid = cache.total, cache.infidelity
    grad = evaluate_grad(cache)
    history = []
    # "max_iter" until another rule fires: the reason if the budget runs out.
    reason = "converged" if infid < cfg.error_threshold else "max_iter"
    n_forward = 1
    memory: deque = deque(maxlen=LBFGS_MEMORY)

    while reason == "max_iter" and len(history) < max_iter:
        moved = False
        for direction in (_two_loop(grad, memory), -grad):
            step = 1.0
            trials = 0
            while step > MIN_BACKTRACK and trials < MAX_LINE_SEARCH:
                candidate = project(x + step * direction)
                delta = candidate - x
                slope = grad @ delta
                if slope < 0.0:
                    trials += 1
                    # The projection can map a shorter step onto the candidate
                    # just rejected; its value is known, so it fails again.
                    if not np.array_equal(candidate, tried):
                        cache = None  # at most one forward cache alive
                        cache = evaluate(candidate)
                        n_forward += 1
                        tried = candidate
                    if cache.total <= value + ARMIJO_C * slope:
                        moved = True
                        break
                step *= BACKTRACK_FACTOR
            if moved or not memory:
                break  # with no memory the first direction already was -grad
            memory.clear()  # quasi-Newton direction failed; retry with -grad
        if not moved:
            reason = "no_descent"
            break

        new_grad = evaluate_grad(cache)
        s = candidate - x
        y = new_grad - grad
        sy = s @ y
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            memory.append((s, y, 1.0 / sy))
        x, grad, previous = candidate, new_grad, value
        value, infid = cache.total, cache.infidelity
        history.append((len(history) + 1, value, infid, cache.guard, step))
        if infid < cfg.error_threshold:
            reason = "converged"
        elif previous - value <= FTOL * max(abs(previous), abs(value), 1.0):
            reason = "stalled"
        elif np.max(np.abs(x - project(x - grad))) < PROJECTED_GRAD_TOL:
            reason = "kkt"

    return OptResult(
        alpha_final=x,
        fidelity=1.0 - infid,
        history=history,
        iterations=len(history),
        reason=reason,
        n_forward=n_forward,
        n_gradient=len(history) + 1,  # the start point and every accepted step
    )
