"""Gate objective: trace infidelity, guard-leakage penalty, and gradients.

The total objective is

    J = (1 - |<V, U_T>|^2 / h^2)  +  w_guard * <guard population>_t
        + w_l2 * |alpha|^2

where the first term is the global-phase-invariant trace infidelity on the
essential subspace and the second is the time-averaged population of
guard-containing basis states on the decimated trajectory grid.

``forward`` propagates once, keeping every step state, and returns a
``ForwardCache`` with the value parts; ``backward(cache)`` turns it into
the gradient without a second sweep.  The other entry points wrap these.

The gradient is a discrete adjoint of the exponential-midpoint scheme: each
step's exponential is differentiated exactly in its eigenbasis through the
divided-difference kernel of exp, so it matches central finite differences
to roundoff.  The reverse pass works in blocks of ``REVERSE_BLOCK`` steps:
one batched ``eigh`` per block (caching all eigenpairs would cost
n_steps * n^2 complex values), a step-by-step adjoint recurrence, and
batched kernel contractions.  ``gradient(..., method="fd")`` is a
finite-difference fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    PropagationError,
    Trajectory,
    guard_population_columns,
    midpoint_controls,
    propagate_sequence,
    step_unitaries,
    stored_indices,
    system_operators,
)
from .model import GateSpec, QuditSystem, embed_target
from .pulse import PulseParams, basis_matrix

FD_STEP_FRACTION = 1e-6

# Final essential columns must be orthonormal to this before the
# infidelity is trusted.
ORTHONORMAL_TOL = 1e-8

# Steps per reverse-pass block.  Each block holds a few (block, n, n)
# complex arrays; on 2q d=2, T=100 ns (4000 steps, 2-core Xeon) 512-step
# blocks raised peak RSS from 56 to 65 MB and were no faster.
REVERSE_BLOCK = 128


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


def _guard_coefficients(times: np.ndarray, n_cols: int) -> np.ndarray:
    """c with guard penalty = c @ (guard population summed over columns).

    The penalty is the trapezoid-rule time average over ``times`` of the
    column-averaged guard population.
    """
    if len(times) < 2:
        return np.full(1, 1.0 / n_cols)
    w = np.empty_like(times)
    w[0] = 0.5 * (times[1] - times[0])
    w[-1] = 0.5 * (times[-1] - times[-2])
    if len(times) > 2:
        w[1:-1] = 0.5 * (times[2:] - times[:-2])
    return w / ((times[-1] - times[0]) * n_cols)


def guard_penalty(traj: Trajectory) -> float:
    """Time average of the column-averaged guard population, trapezoid rule."""
    coef = _guard_coefficients(traj.times, traj.states.shape[-1])
    return float(coef @ traj.guard_pop.sum(axis=-1))


@dataclass(frozen=True, eq=False)
class ForwardCache:
    """One forward pass: inputs, ``states[m]`` after m steps, the guard
    penalty's weight on each state, and the value parts."""

    sys: QuditSystem
    params: PulseParams
    cfg: ObjectiveConfig
    dt: float
    midpoints: np.ndarray
    p: np.ndarray
    q: np.ndarray
    states: np.ndarray
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
    h0, ops, embed, mask = system_operators(sys)
    dt, midpoints, p, q = midpoint_controls(sys, params, steps_per_ns)
    n_steps = p.shape[1]
    states = propagate_sequence(h0, ops, p, q, dt, embed, np.arange(n_steps + 1))
    v_emb = embed_target(target, sys)
    infid = trace_infidelity(states[-1], v_emb, sys.dim_essential)
    idx = stored_indices(n_steps)
    coef = np.zeros(n_steps + 1)
    coef[idx] = _guard_coefficients(idx * dt, sys.dim_essential)
    guard = float(coef[idx] @ guard_population_columns(states[idx], mask).sum(axis=-1))
    total = infid + cfg.w_guard * guard + cfg.w_l2 * float(params.alpha @ params.alpha)
    overlap = np.vdot(v_emb, states[-1])
    return ForwardCache(sys, params, cfg, dt, midpoints, p, q, states, v_emb, overlap,
                        coef, total, infid, guard)


def _exp_derivative_kernel(evals: np.ndarray, dt: float) -> np.ndarray:
    """Divided differences of exp(-1j*dt*x) on eigenvalue grids (..., n).

    Entry (..., i, j) is (f(l_i) - f(l_j)) / (l_i - l_j) with the exact
    diagonal limit, written in a form that is stable for any eigenvalue gap.
    """
    half = np.exp(-0.5j * dt * evals)  # exp(-1j*dt*mean) = half_i * half_j
    gap = evals[..., :, None] - evals[..., None, :]
    return (-1j * dt) * half[..., :, None] * half[..., None, :] * np.sinc(
        dt * gap / (2.0 * np.pi)
    )


def backward(cache: ForwardCache) -> np.ndarray:
    """Adjoint gradient of ``cache.total`` with respect to alpha.

    Boundary-pinned coefficients report gradient zero.
    """
    sys, params, cfg = cache.sys, cache.params, cache.cfg
    h0, ops, _, mask = system_operators(sys)
    p, q, dt, states = cache.p, cache.q, cache.dt, cache.states
    n_steps = p.shape[1]
    guard_coef = cfg.w_guard * cache.guard_coef
    ops_flat = np.stack([m for pair in ops for m in pair]).reshape(2 * len(ops), -1)

    # lam holds the cogradient dJ/d(conj psi) after each step as rows,
    # lam = lambda^H, so the recurrence lambda_m = U_m^H lambda_{m+1} is
    # the row product lam @ U_m.
    lam = -(np.conj(cache.overlap) / sys.dim_essential**2) * cache.v_emb.conj().T
    lam += guard_coef[n_steps] * (states[n_steps].conj().T * mask)
    lam_after = np.empty((REVERSE_BLOCK,) + lam.shape, dtype=complex)
    sens = np.empty((n_steps, len(ops_flat)))  # dJ/d(p_0, q_0, p_1, ...) per step
    for start in reversed(range(0, n_steps, REVERSE_BLOCK)):
        stop = min(start + REVERSE_BLOCK, n_steps)
        evals, evecs, unitaries = step_unitaries(h0, ops, p, q, dt, slice(start, stop))
        for i in range(stop - start - 1, -1, -1):
            lam_after[i] = lam
            lam = lam @ unitaries[i]
            if guard_coef[start + i]:
                lam += guard_coef[start + i] * (states[start + i].conj().T * mask)
        # Q^H psi_m lambda_{m+1}^H Q in each step's eigenbasis, weighted by
        # the exp kernel, mapped back as G = conj(Q) (K o pair^T) Q^T so that
        # dJ/dc = 2 Re sum(op o G) for every control operator at once.
        pair = (evecs.conj().swapaxes(1, 2) @ states[start:stop]) @ (
            lam_after[: stop - start] @ evecs
        )
        weighted = _exp_derivative_kernel(evals, dt) * pair.swapaxes(1, 2)
        g = evecs.conj() @ weighted @ evecs.swapaxes(1, 2)
        sens[start:stop] = 2.0 * np.real(g.reshape(stop - start, -1) @ ops_flat.T)

    # Chain through the control parameterization, the adjoint of
    # eval_controls: with z = s_a + i s_b per control, the complex
    # coefficient gradient is sum_t z(t) e^{-i Omega t} S_b(t).
    z = sens[:, 0::2] + 1j * sens[:, 1::2]  # (N, K)
    carriers = np.asarray(params.carriers)  # (K, N_f)
    phases = np.exp(-1j * cache.midpoints[:, None, None] * carriers)  # (N, K, N_f)
    basis_mid = basis_matrix(params.N_b, params.T, cache.midpoints)  # (N, N_b)
    coeff = np.tensordot(z[:, :, None] * phases, basis_mid, axes=(0, 0))
    grad_flat = np.stack([coeff.real, coeff.imag], axis=-1).reshape(-1)
    grad_flat += 2.0 * cfg.w_l2 * params.alpha
    grad_flat[params.boundary_mask()] = 0.0
    return grad_flat


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
    pinned = params.boundary_mask()
    grad = np.zeros_like(params.alpha)
    for i in range(params.alpha.size):
        if pinned[i]:
            continue
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
