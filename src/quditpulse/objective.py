"""Gate objective: trace infidelity, guard-leakage penalty, and gradients.

The total objective is

    J = (1 - |<V, U_T>|^2 / h^2)  +  w_guard * <guard population>_t
        + w_l2 * |alpha|^2

where the first term is the global-phase-invariant trace infidelity on the
essential subspace and the second is the time-averaged population of
guard-containing basis states on the decimated trajectory grid.

``forward`` propagates once through the Strang steps of
``dynamics.propagate_sequence``, keeping every step state and the last
block of steps, and returns a ``ForwardCache`` with the value parts.
``backward(cache)`` turns it into the gradient without a second forward
sweep: it hands the infidelity's final-state cotangent, the guard weights
and that block to ``dynamics.reverse_sequence``, the exact adjoint of those
steps, the control sensitivities to ``pulse.controls_adjoint``, and adds
the L2 term.  It only reads the cache, so it can run on one cache twice.
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
    error_threshold: float = 1e-3

    def __post_init__(self) -> None:
        if self.w_guard < 0 or self.w_l2 < 0:
            raise ValueError("penalty weights must be nonnegative")
        if not 0.0 < self.error_threshold < 1.0:
            raise ValueError("error_threshold must lie in (0, 1)")


def trace_infidelity(final_states: np.ndarray, v_embedded: np.ndarray, h: int) -> float:
    """Global-phase-invariant distance 1 - |<V, U>|^2 / h^2 in [0, 1].

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
    return float(min(1.0, max(0.0, 1.0 - (abs(overlap) ** 2) / h**2)))


@lru_cache(maxsize=1)
def _guard_weights(n_steps: int, dt: float, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Stored step indices and weights c on all n_steps + 1 states, both
    read-only: guard penalty = c @ (guard population summed over columns), the
    trapezoid-rule time average over the stored times of the column-averaged
    guard population."""
    idx = stored_indices(n_steps)
    times = idx * dt
    w = np.empty_like(times)
    w[0] = 0.5 * (times[1] - times[0])
    w[-1] = 0.5 * (times[-1] - times[-2])
    w[1:-1] = 0.5 * (times[2:] - times[:-2])
    coef = np.zeros(n_steps + 1)
    coef[idx] = w / ((times[-1] - times[0]) * n_cols)
    idx.setflags(write=False)
    coef.setflags(write=False)
    return idx, coef


@dataclass(frozen=True, eq=False)
class ForwardCache:
    """One forward pass: inputs, ``states[m]`` after m steps, the last
    block's step build, the guard penalty's weight on each state, and the
    value parts."""

    sys: QuditSystem
    params: PulseParams
    cfg: ObjectiveConfig
    dt: float
    grid: SampleGrid
    p: np.ndarray
    q: np.ndarray
    states: np.ndarray
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
    """Propagate once, keeping every step state, and evaluate the objective."""
    split, embed, mask = system_operators(sys)
    dt, grid, p, q = midpoint_controls(sys, params, steps_per_ns)
    n_steps = p.shape[1]
    states, last = propagate_sequence(split, p, q, dt, embed, np.arange(n_steps + 1))
    v_emb = embed_target(target, sys)
    infid = trace_infidelity(states[-1], v_emb, sys.dim_essential)
    idx, coef = _guard_weights(n_steps, dt, sys.dim_essential)
    guard = float(coef[idx] @ guard_population_columns(states, mask, idx).sum(axis=-1))
    total = infid + cfg.w_guard * guard + cfg.w_l2 * float(params.alpha @ params.alpha)
    overlap = np.vdot(v_emb, states[-1])
    return ForwardCache(sys, params, cfg, dt, grid, p, q, states, last, v_emb, overlap,
                        coef, total, infid, guard)


def backward(cache: ForwardCache) -> np.ndarray:
    """Adjoint gradient of ``cache.total`` in alpha; pinned coefficients get 0."""
    sys, params, cfg = cache.sys, cache.params, cache.cfg
    split, _, mask = system_operators(sys)
    # dJ/d conj(psi_T) of the infidelity 1 - |<V, psi_T>|^2 / h^2
    lam = -(cache.overlap / sys.dim_essential**2) * cache.v_emb
    sens = reverse_sequence(split, cache.p, cache.q, cache.dt, cache.states, lam,
                            cfg.w_guard * cache.guard_coef, mask, cache.last)
    grad = controls_adjoint(params, cache.grid, sens)
    grad += 2.0 * cfg.w_l2 * params.alpha
    grad[params.boundary_mask()] = 0.0
    return grad


def objective_parts(
    sys: QuditSystem,
    params: PulseParams,
    target: GateSpec,
    cfg: ObjectiveConfig,
    steps_per_ns: int | None = None,
) -> tuple[float, float, float]:
    """(total objective, trace infidelity, guard penalty) for one pulse."""
    cache = forward(sys, params, target, cfg, steps_per_ns)
    return cache.total, cache.infidelity, cache.guard


def objective(
    sys: QuditSystem,
    params: PulseParams,
    target: GateSpec,
    cfg: ObjectiveConfig,
    steps_per_ns: int | None = None,
) -> float:
    total, _, _ = objective_parts(sys, params, target, cfg, steps_per_ns)
    return total


def value_and_gradient(
    sys: QuditSystem,
    params: PulseParams,
    target: GateSpec,
    cfg: ObjectiveConfig,
    steps_per_ns: int | None = None,
) -> tuple[float, float, float, np.ndarray]:
    """(total, infidelity, guard penalty, gradient) from one forward pass."""
    cache = forward(sys, params, target, cfg, steps_per_ns)
    return cache.total, cache.infidelity, cache.guard, backward(cache)


def _fd_gradient(
    sys: QuditSystem,
    params: PulseParams,
    target: GateSpec,
    cfg: ObjectiveConfig,
    steps_per_ns: int | None,
) -> np.ndarray:
    step = FD_STEP_FRACTION * params.alpha_max
    grad = np.zeros_like(params.alpha)
    for i in np.flatnonzero(~params.boundary_mask()):
        bumped = params.alpha.copy()
        bumped[i] = params.alpha[i] + step
        plus = objective(sys, params.with_alpha(bumped), target, cfg, steps_per_ns)
        bumped[i] = params.alpha[i] - step
        minus = objective(sys, params.with_alpha(bumped), target, cfg, steps_per_ns)
        grad[i] = (plus - minus) / (2.0 * step)
    return grad


def gradient(
    sys: QuditSystem,
    params: PulseParams,
    target: GateSpec,
    cfg: ObjectiveConfig,
    steps_per_ns: int | None = None,
    method: str = "adjoint",
) -> np.ndarray:
    """Gradient of the total objective with respect to alpha."""
    if method == "adjoint":
        return value_and_gradient(sys, params, target, cfg, steps_per_ns)[3]
    if method == "fd":
        return _fd_gradient(sys, params, target, cfg, steps_per_ns)
    raise ValueError(f"unknown gradient method {method!r}")
