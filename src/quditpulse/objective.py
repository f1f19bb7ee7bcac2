"""Gate objective: trace infidelity, guard-leakage penalty, and gradients.

The total objective is

    J = (1 - |<V, U_T>|^2 / h^2)  +  w_guard * <guard population>_t
        + w_l2 * |alpha|^2

where the first term is the global-phase-invariant trace infidelity on the
essential subspace and the second is the time-averaged population of
guard-containing basis states on the decimated trajectory grid.

``forward`` propagates once through the Strang steps of
``dynamics.propagate_sequence``, keeping the states on the guard grid (the
last of them the final state) and the last block of steps, and returns a
``ForwardCache`` with the value parts.  ``backward(cache)`` turns it into
the gradient without a second forward sweep: it hands the infidelity's
final-state cotangent, the guard-grid states and weights and that block to
``dynamics.reverse_sequence``, the exact adjoint of those steps, which
rebuilds the states between backwards from the stored ones, the control
sensitivities to ``pulse.controls_adjoint``, and adds the L2 term.  It only
reads the cache, so it can run on one cache twice.
The gradient is exact for the discrete propagator, so it matches finite
differences of the same objective, not of the continuous-time one.
The other entry points wrap these; ``gradient(..., method="fd")`` is a
finite-difference fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import (
    ERROR_THRESHOLD,
    PropagationError,
    guard_population_columns,
    midpoint_controls,
    propagate_sequence,
    reverse_sequence,
    stored_indices,
    system_operators,
)
from .model import GateSpec, QuditSystem, embed_target
from .pulse import PulseParams, SampleGrid, controls_adjoint

FD_STEP_FRACTION = 1e-6

# Final essential columns must be orthonormal to this before the
# infidelity is trusted.
ORTHONORMAL_TOL = 1e-8


@dataclass(frozen=True)
class ObjectiveConfig:
    """Weights and convergence target for the optimization objective."""

    w_guard: float = 0.1
    w_l2: float = 0.0
    error_threshold: float = ERROR_THRESHOLD

    def __post_init__(self) -> None:
        if self.w_guard < 0 or self.w_l2 < 0:
            raise ValueError("penalty weights must be nonnegative")
        if not 0.0 < self.error_threshold < 1.0:
            raise ValueError("error_threshold must lie in (0, 1)")


def trace_infidelity(final_states: np.ndarray, v_embedded: np.ndarray) -> float:
    """Global-phase-invariant distance 1 - |<V, U>|^2 / h^2 in [0, 1], with h
    the number of columns of ``v_embedded``.

    Raises PropagationError unless the columns of ``final_states`` are
    orthonormal; only then is roundoff clipped into [0, 1].
    """
    if final_states.shape != v_embedded.shape:
        raise ValueError(
            f"shape mismatch: {final_states.shape} vs {v_embedded.shape}"
        )
    gram = final_states.conj().T @ final_states
    dev = np.max(np.abs(gram - np.eye(len(gram))))
    if not dev <= ORTHONORMAL_TOL:
        raise PropagationError(f"final columns are not orthonormal (deviation {dev:.3e})")
    overlap = np.vdot(v_embedded, final_states)
    return float(min(1.0, max(0.0, 1.0 - (abs(overlap) ** 2) / v_embedded.shape[1]**2)))


@lru_cache(maxsize=1)
def _guard_weights(n_steps: int, dt: float, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Guard-grid step indices and weights c on their states, both read-only:
    guard penalty = c @ (guard population summed over columns), the
    trapezoid-rule time average over the stored times of the column-averaged
    guard population."""
    idx = stored_indices(n_steps)
    times = idx * dt
    w = np.empty_like(times)
    w[0] = 0.5 * (times[1] - times[0])
    w[-1] = 0.5 * (times[-1] - times[-2])
    w[1:-1] = 0.5 * (times[2:] - times[:-2])
    w /= (times[-1] - times[0]) * n_cols
    idx.setflags(write=False)
    w.setflags(write=False)
    return idx, w


@dataclass(frozen=True, eq=False)
class ForwardCache:
    """One forward pass: inputs, ``guard_states[i]`` after ``guard_steps[i]``
    steps (the last is the final state), the last block's step build, the
    guard penalty's weight on each guard-grid state, and the value parts."""

    sys: QuditSystem
    params: PulseParams
    cfg: ObjectiveConfig
    dt: float
    grid: SampleGrid
    p: np.ndarray
    q: np.ndarray
    guard_steps: np.ndarray
    guard_states: np.ndarray
    last: tuple
    v_emb: np.ndarray
    overlap: complex
    guard_coef: np.ndarray
    total: float
    infidelity: float
    guard: float


def forward(
    sys: QuditSystem,
    params: PulseParams,
    target: GateSpec,
    cfg: ObjectiveConfig,
    steps_per_ns: int | None = None,
) -> ForwardCache:
    """Propagate once, keeping the guard-grid states, and evaluate the objective."""
    split, embed, mask = system_operators(sys)
    dt, grid, p, q = midpoint_controls(sys, params, steps_per_ns)
    idx, coef = _guard_weights(p.shape[1], dt, sys.dim_essential)
    states, last = propagate_sequence(split, p, q, dt, embed, idx)
    v_emb = embed_target(target, sys)
    infid = trace_infidelity(states[-1], v_emb)
    guard = float(coef @ guard_population_columns(states, mask).sum(axis=-1))
    total = infid + cfg.w_guard * guard + cfg.w_l2 * float(params.alpha @ params.alpha)
    overlap = np.vdot(v_emb, states[-1])
    return ForwardCache(sys, params, cfg, dt, grid, p, q, idx, states, last, v_emb, overlap,
                        coef, total, infid, guard)


def backward(cache: ForwardCache) -> np.ndarray:
    """Adjoint gradient of ``cache.total`` in alpha; pinned coefficients get 0."""
    sys, params, cfg = cache.sys, cache.params, cache.cfg
    split, _, mask = system_operators(sys)
    # dJ/d conj(psi_T) of the infidelity 1 - |<V, psi_T>|^2 / h^2
    lam = -(cache.overlap / sys.dim_essential**2) * cache.v_emb
    sens = reverse_sequence(split, cache.p, cache.q, cache.dt, cache.guard_steps,
                            cache.guard_states, lam, cfg.w_guard * cache.guard_coef, mask,
                            cache.last)
    grad = controls_adjoint(cache.grid, sens)
    grad += 2.0 * cfg.w_l2 * params.alpha
    grad[params.boundary_mask()] = 0.0
    return grad


def objective_parts(
    sys: QuditSystem,
    params: PulseParams,
    target: GateSpec,
    cfg: ObjectiveConfig,
) -> tuple[float, float, float]:
    """(total objective, trace infidelity, guard penalty) for one pulse."""
    cache = forward(sys, params, target, cfg)
    return cache.total, cache.infidelity, cache.guard


def objective(
    sys: QuditSystem,
    params: PulseParams,
    target: GateSpec,
    cfg: ObjectiveConfig,
) -> float:
    total, _, _ = objective_parts(sys, params, target, cfg)
    return total


def value_and_gradient(
    sys: QuditSystem,
    params: PulseParams,
    target: GateSpec,
    cfg: ObjectiveConfig,
) -> tuple[float, float, float, np.ndarray]:
    """(total, infidelity, guard penalty, gradient) from one forward pass."""
    cache = forward(sys, params, target, cfg)
    return cache.total, cache.infidelity, cache.guard, backward(cache)


def _fd_gradient(
    sys: QuditSystem,
    params: PulseParams,
    target: GateSpec,
    cfg: ObjectiveConfig,
) -> np.ndarray:
    step = FD_STEP_FRACTION * params.alpha_max
    grad = np.zeros_like(params.alpha)
    for i in np.flatnonzero(~params.boundary_mask()):
        bumped = params.alpha.copy()
        bumped[i] = params.alpha[i] + step
        plus = objective(sys, params.with_alpha(bumped), target, cfg)
        bumped[i] = params.alpha[i] - step
        minus = objective(sys, params.with_alpha(bumped), target, cfg)
        grad[i] = (plus - minus) / (2.0 * step)
    return grad


def gradient(
    sys: QuditSystem,
    params: PulseParams,
    target: GateSpec,
    cfg: ObjectiveConfig,
    method: str = "adjoint",
) -> np.ndarray:
    """Gradient of the total objective with respect to alpha."""
    if method == "adjoint":
        return value_and_gradient(sys, params, target, cfg)[3]
    if method == "fd":
        return _fd_gradient(sys, params, target, cfg)
    raise ValueError(f"unknown gradient method {method!r}")
