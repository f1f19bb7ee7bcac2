"""Time propagation of the rotating-frame Schrödinger equation.

The integrator is the Strang splitting of drift and controls.  Step m is

    S_m = E K_m E,  E = exp(-1j * dt/2 * H0),  K_m = exp(-1j * dt * H_c(t_m)),

where H_c = sum_k p_k A_k + q_k B_k holds the controls sampled at the step
midpoint t_m.  ``E`` comes from one cached eigendecomposition of the
constant drift.  ``K_m`` needs none: with r = hypot(p, q),
theta = atan2(q, p) and R = exp(-1j * theta * N), one qudit's p A + q B is
r R (a + a^dag) R^H, so its exponential is W diag(exp(-1j * dt * r * D)) W^H
with W = R V and (D, V) the cached eigenpairs of a + a^dag.  The control
terms of two qudits commute, so K_m and its eigenbasis are Kronecker
products and its eigenvalues the sums r_1 D_i + r_2 D_j.  Every step is
unitary to machine precision and the scheme converges at second order in
dt.  All essential basis columns are propagated together as one matrix,
which also makes results independent of any column-level parallelism.

``propagate_sequence`` is the one forward sweep; ``reverse_sequence`` is
its exact discrete adjoint, which differentiates each K_m in its
closed-form eigenbasis through the divided-difference kernel of exp; each
control operator acts on one qudit, so it meets only that qudit's partial
trace of the kernel-weighted matrix.  Both walk the steps in blocks of
``BLOCK``.  The only eigendecompositions are those cached by
``system_operators``, so their number does not grow with the step count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .model import QuditSystem, drift_hamiltonian, embed_isometry, lowering_operator
from .pulse import PulseParams, eval_controls

# The one integrator, named in every pulse document's metadata.
INTEGRATOR = "strang"

# Default integrator resolution: >= 30 samples per fastest rotating-frame
# period for the parameter ranges of interest.
STEPS_PER_NS_SINGLE = 20
STEPS_PER_NS_TWO = 40

# Trajectory snapshots are thinned to at most this many stored steps.
MAX_STORED_STEPS = 1000

# Steps per block in both sweeps.  512-step blocks were no faster and, on
# 2q d=2, T=100 ns (2-core Xeon), raised peak RSS from 51 to 59 MB.
BLOCK = 128


class PropagationError(RuntimeError):
    """Raised when the controls feed non-finite values into the propagator."""


@dataclass(frozen=True)
class Trajectory:
    """Stored evolution: times (S,), states (S, n, h), guard_pop (S, h).

    ``states[s, :, c]`` is essential basis column c at time ``times[s]``;
    ``guard_pop[s, c]`` is that column's total population on
    guard-containing basis states.
    """

    times: np.ndarray
    states: np.ndarray
    guard_pop: np.ndarray


def default_steps_per_ns(sys: QuditSystem) -> int:
    return STEPS_PER_NS_SINGLE if sys.num_qudits == 1 else STEPS_PER_NS_TWO


@dataclass(frozen=True, eq=False)
class Splitting:
    """The eigenpairs a Strang step is built from.

    H0 = drift_vecs diag(drift_vals) drift_vecs^H on the full space.  On one
    qudit's levels a + a^dag = ladder_vecs diag(ladder_vals) ladder_vecs^H,
    and ``ladder_lowering`` = ladder_vecs^H a ladder_vecs.
    """

    num_qudits: int
    drift_vals: np.ndarray
    drift_vecs: np.ndarray
    ladder_vals: np.ndarray
    ladder_vecs: np.ndarray
    ladder_lowering: np.ndarray


@lru_cache(maxsize=32)
def system_operators(sys: QuditSystem) -> tuple[Splitting, np.ndarray, np.ndarray]:
    """Cached (splitting, embed isometry, guard mask) for a system.

    The splitting holds the only eigendecompositions propagation needs.
    """
    drift_vals, drift_vecs = np.linalg.eigh(drift_hamiltonian(sys))
    a = lowering_operator(sys.levels)
    ladder_vals, ladder_vecs = np.linalg.eigh(a + a.conj().T)
    lowering = ladder_vecs.conj().T @ a @ ladder_vecs
    embed = embed_isometry(sys)
    mask = sys.guard_mask()
    for arr in (drift_vals, drift_vecs, ladder_vals, ladder_vecs, lowering, embed, mask):
        arr.setflags(write=False)
    split = Splitting(sys.num_qudits, drift_vals, drift_vecs, ladder_vals, ladder_vecs, lowering)
    return split, embed, mask


def step_grid(T: float, steps_per_ns: int) -> tuple[int, float]:
    """Number of steps and step size covering [0, T]."""
    n_steps = max(1, int(round(T * steps_per_ns)))
    return n_steps, T / n_steps


def midpoint_controls(
    sys: QuditSystem, params: PulseParams, steps_per_ns: int | None
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """(dt, step midpoints, p, q) for a pulse at the given resolution."""
    if steps_per_ns is None:
        steps_per_ns = default_steps_per_ns(sys)
    if steps_per_ns < 1:
        raise ValueError("steps_per_ns must be >= 1")
    n_steps, dt = step_grid(params.T, steps_per_ns)
    midpoints = (np.arange(n_steps) + 0.5) * dt
    p, q = eval_controls(params, midpoints)
    return dt, midpoints, p, q


def stored_indices(n_steps: int) -> np.ndarray:
    """Decimated step indices (always including 0 and n_steps)."""
    stride = max(1, -(-n_steps // MAX_STORED_STEPS))
    idx = list(range(0, n_steps + 1, stride))
    if idx[-1] != n_steps:
        idx.append(n_steps)
    return np.asarray(idx)


def _expm1i(x: np.ndarray) -> np.ndarray:
    """exp(-1j * x) - 1 without cancellation for small x."""
    return -2.0 * np.sin(0.5 * x) ** 2 - 1j * np.sin(x)


def _half_drift(split: Splitting, dt: float) -> np.ndarray:
    """E = exp(-1j * dt/2 * H0)."""
    vecs = split.drift_vecs
    return np.eye(len(vecs)) + (vecs * _expm1i(0.5 * dt * split.drift_vals)) @ vecs.conj().T


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kronecker products of two stacks of matrices, step by step."""
    return (x[:, :, None, :, None] * y[:, None, :, None, :]).reshape(
        len(x), x.shape[1] * y.shape[1], x.shape[2] * y.shape[2])


def _qudit_exponential(split: Splitting, p: np.ndarray, q: np.ndarray,
                       dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues r D, eigenbases W = R V and exp(-1j dt (p A + q B)) of
    one qudit's control term at each sample of p, q."""
    number = np.arange(len(split.ladder_vals))
    vals = np.hypot(p, q)[:, None] * split.ladder_vals
    vecs = np.exp(-1j * np.arctan2(q, p)[:, None, None] * number[:, None]) * split.ladder_vecs
    # I + W (exp(-1j dt r D) - 1) W^H keeps the rounding of W W^H out of
    # the identity part, so the steps' norm error does not add up.
    kmat = (vecs * _expm1i(dt * vals)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
    kmat += np.eye(len(number))
    return vals, vecs, kmat


def _commuting_product(first, second):
    """Eigenpairs and exponential of the sum of two commuting qudit terms."""
    (vals_1, vecs_1, kmat_1), (vals_2, vecs_2, kmat_2) = first, second
    vals = (vals_1[:, :, None] + vals_2[:, None, :]).reshape(len(vals_1), -1)
    return vals, _kron(vecs_1, vecs_2), _kron(kmat_1, kmat_2)


def step_unitaries(
    split: Splitting,
    p: np.ndarray,
    q: np.ndarray,
    dt: float,
    sl: slice,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Control eigenpairs and Strang steps for one chunk of midpoint steps.

    Returns (eigvals, eigvecs, unitaries) with leading axis over steps: the
    closed-form eigendecomposition of H_c and S = E K E at each midpoint.
    """
    qudits = [_qudit_exponential(split, p[k, sl], q[k, sl], dt)
              for k in range(split.num_qudits)]
    evals, evecs, kmat = reduce(_commuting_product, qudits)
    half = _half_drift(split, dt)
    return evals, evecs, half @ kmat @ half


def propagate_sequence(
    split: Splitting,
    p: np.ndarray,
    q: np.ndarray,
    dt: float,
    initial: np.ndarray,
    store: np.ndarray | None = None,
) -> np.ndarray:
    """Apply the Strang steps defined by control samples p, q.

    ``p`` and ``q`` have shape (K, n_steps) and hold the control values at
    the step midpoints.  Returns the states at the strictly increasing step
    indices in ``store`` (default: final state only) as one array of shape
    (len(store),) + initial.shape, written in place as the sweep passes
    each index.
    """
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise PropagationError("controls produced non-finite values")
    n_steps = p.shape[1]
    wanted = [n_steps] if store is None else [int(i) for i in store]
    if np.any(np.diff(wanted) <= 0) or not 0 <= wanted[0] <= wanted[-1] <= n_steps:
        raise ValueError("store must be strictly increasing step indices")
    states = np.empty((len(wanted),) + np.shape(initial), dtype=complex)
    psi = np.asarray(initial, dtype=complex)
    slot = 0
    if wanted[0] == 0:
        states[0] = psi
        slot = 1
    for start in range(0, n_steps, BLOCK):
        sl = slice(start, min(start + BLOCK, n_steps))
        _, _, unitaries = step_unitaries(split, p, q, dt, sl)
        for m, u in enumerate(unitaries, start + 1):
            if slot < len(wanted) and wanted[slot] == m:
                psi = np.matmul(u, psi, out=states[slot])
                slot += 1
            else:
                psi = u @ psi
    return states


def _exp_derivative_kernel(evals: np.ndarray, dt: float) -> np.ndarray:
    """Divided differences (f(l_i) - f(l_j)) / (l_i - l_j) of f = exp(-1j*dt*x) on
    eigenvalue grids (..., n), exact on the diagonal and stable for any gap."""
    half = np.exp(-0.5j * dt * evals)  # exp(-1j*dt*mean) = half_i * half_j
    gap = evals[..., :, None] - evals[..., None, :]
    sinc = np.sinc(dt * gap / (2.0 * np.pi))
    return (-1j * dt) * half[..., :, None] * half[..., None, :] * sinc


def reverse_sequence(split: Splitting, p: np.ndarray, q: np.ndarray, dt: float,
                     states: np.ndarray, lam: np.ndarray, coef: np.ndarray,
                     mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of ``propagate_sequence``: (dJ/dp, dJ/dq), each shaped like p.

    ``states[m]`` is the state after m steps, ``lam`` = dJ/d conj(states[-1]),
    and J adds the running cost ``coef[m] * sum(|states[m][mask]|^2)``.
    """
    n_steps = p.shape[1]
    n_q, levels = split.num_qudits, len(split.ladder_vals)
    lowering = split.ladder_lowering
    half = _half_drift(split, dt)
    # Rows hold lambda^H, so lambda_m = U_m^H lambda_{m+1} is lam @ U_m.
    lam = lam.conj().T + coef[n_steps] * (states[n_steps].conj().T * mask)
    lam_after = np.empty((BLOCK,) + lam.shape, dtype=complex)
    lower = np.empty((n_q, n_steps), dtype=complex)
    upper = np.empty((n_q, n_steps), dtype=complex)
    for start in reversed(range(0, n_steps, BLOCK)):
        stop = min(start + BLOCK, n_steps)
        evals, evecs, unitaries = step_unitaries(split, p, q, dt, slice(start, stop))
        for i in range(stop - start - 1, -1, -1):
            lam_after[i] = lam
            lam = lam @ unitaries[i]
            if coef[start + i]:
                lam += coef[start + i] * (states[start + i].conj().T * mask)
        # S_m = E K_m E, so K_m's derivative sees E psi_m and lambda_{m+1}^H E:
        # dJ/dc = 2 Re sum(M o Q^H C Q) for a control operator C, with
        # M = G o (Q^H E psi_m lambda_{m+1}^H E Q)^T in the eigenbasis Q of
        # H_c and G the divided-difference kernel of exp.
        lam_q = (lam_after[: stop - start] @ half) @ evecs
        pair = (evecs.conj().swapaxes(1, 2) @ (half @ states[start:stop])) @ lam_q
        weighted = _exp_derivative_kernel(evals, dt) * pair.swapaxes(1, 2)
        # Q = W_1 (x) W_2 and C acts on one qudit, so only that qudit's
        # partial trace of M enters.  With alpha = V^H a V,
        # W^H A W = e^{-i theta} alpha + e^{i theta} alpha^H and
        # W^H B W = 1j (e^{-i theta} alpha - e^{i theta} alpha^H).
        w = weighted.reshape((stop - start,) + (levels,) * (2 * n_q))
        reduced = [w] if n_q == 1 else [np.trace(w, axis1=2, axis2=4),
                                        np.trace(w, axis1=1, axis2=3)]
        for k, traced in enumerate(reduced):
            phase = np.exp(-1j * np.arctan2(q[k, start:stop], p[k, start:stop]))
            lower[k, start:stop] = phase * np.einsum("bij,ij->b", traced, lowering)
            upper[k, start:stop] = phase.conj() * np.einsum("bij,ji->b", traced, lowering.conj())
    return 2.0 * np.real(lower + upper), -2.0 * np.imag(lower - upper)


def guard_population_columns(states: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-column population on guard-containing basis states."""
    return np.sum(np.abs(states[..., mask, :]) ** 2, axis=-2)


def propagate(
    sys: QuditSystem,
    params: PulseParams,
    steps_per_ns: int | None = None,
    store_trajectory: bool = True,
    initial_states: np.ndarray | None = None,
) -> Trajectory:
    """Evolve the essential basis columns under drift plus controls.

    With ``store_trajectory`` the returned Trajectory holds decimated
    snapshots; otherwise only the initial and final states.
    """
    split, embed, mask = system_operators(sys)
    dt, _, p, q = midpoint_controls(sys, params, steps_per_ns)
    n_steps = p.shape[1]
    if store_trajectory:
        idx = stored_indices(n_steps)
    else:
        idx = np.asarray([0, n_steps])
    initial = embed if initial_states is None else initial_states
    states = propagate_sequence(split, p, q, dt, initial, idx)
    return Trajectory(
        times=idx * dt,
        states=states,
        guard_pop=guard_population_columns(states, mask),
    )


def guard_populations(traj: Trajectory) -> np.ndarray:
    """Column-averaged guard population at each stored time."""
    n_cols = traj.states.shape[-1]
    return traj.guard_pop.sum(axis=-1) / n_cols
