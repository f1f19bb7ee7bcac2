"""Bounded minimization of the pulse objective at a fixed duration.

A projected limited-memory quasi-Newton method: search directions come
from the standard two-loop recursion, steps are taken along the projection
arc onto the box |alpha_i| <= alpha_max (with boundary splines held at
zero), and step lengths are chosen by backtracking until the Armijo
sufficient-decrease condition holds.  Every accepted value is strictly
lower than the last, so the final iterate is the best one seen.

Every evaluation is one ``objective.forward`` pass; the accepted line-search
candidate's cache goes to ``objective.backward``, so a step costs no extra
forward sweep and Armijo tests and the history use the same values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import GateSpec, QuditSystem
from .objective import ForwardCache, ObjectiveConfig, backward, forward
from .objective import objective_parts  # noqa: F401  (kept importable from here)
from .pulse import PulseParams

LBFGS_MEMORY = 10
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
MIN_BACKTRACK = 1e-14
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
    objective_history: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


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
    on_iteration: Callable[[int, float, float, float, float], None] | None = None,
) -> OptResult:
    """Minimize the pulse objective over alpha within the amplitude box.

    Terminates when the trace infidelity drops below cfg.error_threshold,
    the iteration budget is exhausted, the projected gradient vanishes, or
    no descent step can be found.  ``on_iteration`` receives
    (iteration, objective, infidelity, guard penalty, step size).
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
    value, infid = cache.total, cache.infidelity
    grad = evaluate_grad(cache)
    history = [value]
    converged = infid < cfg.error_threshold
    iterations = 0
    memory: deque = deque(maxlen=LBFGS_MEMORY)

    while not converged and iterations < max_iter:
        moved = False
        for direction in (_two_loop(grad, memory), -grad):
            step = 1.0
            while step > MIN_BACKTRACK:
                candidate = project(x + step * direction)
                delta = candidate - x
                slope = grad @ delta
                if slope < 0.0:
                    cache = None  # at most one forward cache alive
                    cache = evaluate(candidate)
                    if cache.total <= value + ARMIJO_C * slope:
                        moved = True
                        break
                step *= BACKTRACK_FACTOR
            if moved or not memory:
                break  # with no memory the first direction already was -grad
            memory.clear()  # quasi-Newton direction failed; retry with -grad
        if not moved:
            break  # no descent possible at working precision

        new_grad = evaluate_grad(cache)
        s = candidate - x
        y = new_grad - grad
        sy = s @ y
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            memory.append((s, y, 1.0 / sy))
        x, grad = candidate, new_grad
        value, infid, guard = cache.total, cache.infidelity, cache.guard
        iterations += 1
        history.append(value)
        if on_iteration is not None:
            on_iteration(iterations, value, infid, guard, step)
        if infid < cfg.error_threshold:
            converged = True
            break
        projected_grad = x - project(x - grad)
        if np.max(np.abs(projected_grad)) < PROJECTED_GRAD_TOL:
            break

    return OptResult(
        alpha_final=x,
        fidelity=1.0 - infid,
        objective_history=history,
        iterations=iterations,
        converged=converged,
    )
