"""Time propagation of the rotating-frame Schrödinger equation.

The integrator is the Strang splitting of drift and controls.  Step m is

    S_m = E K_m E,  E = exp(-1j * dt/2 * H0),  K_m = exp(-1j * dt * H_c(t_m)),

where H_c = sum_k p_k A_k + q_k B_k holds the controls sampled at the step
midpoint t_m.  ``E`` comes from one cached eigendecomposition of the
constant drift.  ``K_m`` needs none: with r = hypot(p, q),
theta = atan2(q, p) and R = exp(-1j * theta * N), one qudit's p A + q B is
r R (a + a^dag) R^H, so its exponential is W diag(exp(-1j * dt * r * D)) W^H
with W = R V and (D, V) the cached eigenpairs of a + a^dag, built as
K = I + (R R^H) o (f @ O) from f = exp(-1j * dt * r * D) - 1 and the cached
O[k, (i, j)] = V[i, k] conj(V[j, k]): one GEMM and phases per block.  The
control terms of two qudits commute, so K_m is the Kronecker product of the
two qudits' exponentials, applied to E^2 one factor at a time.  Every step
is unitary to machine precision and the
scheme converges at second order in dt.  All essential basis columns are
propagated together as one matrix, which also makes results independent of
any column-level parallelism.

Both sweeps carry chi_m = E^-1 psi_m through the merged steps
M_m = K_m E^2 and recover psi = E chi a block at a time.  Both build their
steps ``block_length`` at a time with ``step_unitaries``, in blocks aligned
to the end of the pulse, so only the first block can be short, into
buffers that each thread keeps for its latest block shape.  The forward
sweep ``propagate_sequence`` multiplies, for matrices up to 16 x 16, prefix
products over groups of steps, built for all groups of a block at once, and
applies each group's to chi as one GEMM, or, in a block that stores no
state before its last step, the product of its steps, taken pairwise.  It
stores only the states it is asked for, and hands the last block's
per-qudit control factors (eigenvalues, phases and exponentials, fresh
arrays) to the reverse sweep, which starts there and merges them into steps
in its own buffers.  Its exact discrete adjoint
``reverse_sequence`` carries mu_m = lambda_m^H E back through the same M_m:
mu_m = mu_{m+1} M_m + g_m with g_m the guard term.  Every M_m is unitary,
so where the forward stored only some states, chi_m^H = chi_{m+1}^H M_m
rebuilds the others from the final one as h more rows of the same products,
restarted from the stored states where a group of steps begins on their
grid.  For matrices up to 10 x 10 it runs over groups of steps too, with
each group's suffix products and guard sums built for all groups of a block
at once, and it only reads the forward's factors.  It runs its per-step work
in sub-blocks of each block under one byte budget, ``SWEEP_BYTES``: the
recurrence too where it goes step by step, only the sensitivities where it
goes by groups.  It differentiates each K_m in its closed-form eigenbasis
through the divided-difference kernel of exp;
each control operator acts on one qudit, so after the other qudit's K_m is
contracted in only its own qudit's L x L kernel enters, projected as
W^H T W = V^H (R^H T R) V.  Each product with a constant (E^2, E, V) is
a 2D GEMM over a block's stacked rows, and every product of both sweeps
goes through ``np.matmul`` on one BLAS thread.  The only
eigendecompositions are those cached by ``system_operators``, so their
number does not grow with the step count.  ``propagate`` is the one forward
pass, and one ``StepGrid`` stays cached.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import QuditSystem, drift_hamiltonian, embed_isometry, lowering_operator
from .pulse import PulseParams, SampleGrid, carrier_frequencies, eval_controls, sample_grid

# The default error threshold: a claimed infidelity lies below it.
ERROR_THRESHOLD = 1e-3

# The resolution rule's error constants, floor and budgets (``resolutions``).
ERROR_BASE, ERROR_PER_CARRIER, MIN_STEPS_PER_NS = 1.5e-3, 4e-5, 5
CLAIM_SHARE, SEARCH_SHARE = 1 / 100, 1 / 20

# Trajectory snapshots are thinned to at most this many stored steps.
MAX_STORED_STEPS = 1000

# Single-thread rule: the GEMMs the sweeps issue keep m * n * k below this.
# OpenBLAS 0.3.31 (2-core Xeon) runs a zgemm from 65,536 on two threads:
# (255 x 16) @ (16 x 16) took 24 us at cpu/wall 1.00, (256 x 16) @ (16 x 16)
# 20 us at 1.95, so a second thread costs more CPU than it saves wall time.
# ``_gemm`` chunks its rows to keep it at any size, and so does the forward's
# pairwise product of a block's steps, from n = 41 (117,649 unsplit at 2q d=5).
# The per-step products of n x n steps and h rows or columns keep it up to
# d=38 on one qudit and d=5 on two, as the reverse sweep splits its 2h rebuild
# rows in two where they reach it (120,050 at 2q d=5).  From 2q d=6 the h
# columns do too (147,456).  The forward's group products stack at most
# 11 x 16 rows (45,056 at n = h = 16).  The two-qudit step build applies K_1
# as B * L products (L x L) @ (L x n) for a block of B steps and L levels per
# qudit (2,401 at 2q d=5).
GEMM_THREAD_BOUND = 65_536

# Steps per block of both sweeps (``block_length``): as many n x n steps as
# fit in the 512 KiB of BLOCK 16 x 16 steps (2q d=2), and at least BLOCK, so
# 2,048 at 1q d=2 and 128 on two qudits.  A block costs about 50 numpy calls
# whatever its length; on 2q d=2, T=100 ns (2-core Xeon), 512-step blocks
# were no faster and raised peak RSS from 51 to 59 MB, measured when every
# block built its steps in fresh arrays, before the step buffers.
BLOCK = 128

# The byte budget of the sweeps' per-step temporaries.  It sets the reverse
# sweep's sub-blocks (``sub_block_length``), in which each per-step array of
# h x n entries (mu and rebuilt rows, guard terms, kets) holds at most
# SWEEP_BYTES: halves of a block at 2q d=3 (64 steps) and 1q d=4 (455), whole
# blocks at 1q d=2 and 2q d=2.  The K_2 rows of one partition of the two-qudit
# step build take at most SWEEP_BYTES, fewer where ``_gemm``'s rule asks (20
# steps, 195 KiB at 2q d=3), and the guard rows that ``guard_population_columns``
# copies at a time half of it (8,192 entries).  On 2q d=3, 150 ns (2-core
# Xeon, forward then backward, 41 rounds), a backward with sub-blocks of half
# this budget took 1.07x as long as with whole blocks, with this one 1.00x.
SWEEP_BYTES = 2**18

# Each thread's step-build buffers (``merged_steps``).
_buffers = threading.local()


class PropagationError(RuntimeError):
    """Raised when the controls feed non-finite values into the propagator."""


@lru_cache(maxsize=32)
def resolutions(sys: QuditSystem, error_threshold: float) -> tuple[int, int]:
    """(search, claim) steps per ns: the fewest, from MIN_STEPS_PER_NS up, at
    which the measured error bound stays within SEARCH_SHARE and CLAIM_SHARE
    of ``error_threshold``.

    On converged pulses of 1q d = 2..5, 8 and 2q d=2, the infidelity at n
    steps/ns differs from that at 640 steps/ns by at most
    (ERROR_BASE + ERROR_PER_CARRIER * w**2) / n**2 from 4 steps/ns up, w the
    fastest rotating-frame carrier (rad/ns).  The error does not follow the
    carrier alone: a 1q d=2 pulse (w = 0) at the amplitude bound reads
    1.4e-3 / n**2, a 1q d=8 pulse (w = 6.2) 2.9e-3 / n**2.  Below 4 steps/ns
    the bound fails: a 400 ns CNOT reads 1.4e-3 at 2 and a 1q d=8 pulse
    1.0e-3 at 3.  A bound or step count that overflows raises ValueError.
    """
    fastest = max(abs(f) for ctrl in carrier_frequencies(sys)[1] for f in ctrl)
    try:
        bound = ERROR_BASE + ERROR_PER_CARRIER * fastest**2
        return tuple(max(MIN_STEPS_PER_NS, math.ceil(math.sqrt(bound / (share * error_threshold))))
                     for share in (SEARCH_SHARE, CLAIM_SHARE))
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"no step count meets error threshold {error_threshold:g} with carriers "
                         f"up to {fastest:g} rad/ns") from exc


def default_steps_per_ns(sys: QuditSystem) -> int:
    """The claim resolution of ``resolutions`` at the default error threshold."""
    return resolutions(sys, ERROR_THRESHOLD)[1]


@dataclass(frozen=True, eq=False)
class Splitting:
    """The eigenpairs a Strang step is built from.

    H0 = drift_vecs diag(drift_vals) drift_vecs^H on the full space.  On one
    qudit's levels a + a^dag = V diag(D) V^H with V = ``ladder_vecs``,
    D = ``ladder_vals``; ``ladder_lowering`` = V^H a V, and ``ladder_outer``
    (L, L * L) = O[k, (i, j)] = V[i, k] conj(V[j, k]), so K - I = (R R^H) o (f @ O).
    """

    num_qudits: int
    drift_vals: np.ndarray
    drift_vecs: np.ndarray
    ladder_vals: np.ndarray
    ladder_vecs: np.ndarray
    ladder_lowering: np.ndarray
    ladder_outer: np.ndarray


@lru_cache(maxsize=32)
def system_operators(sys: QuditSystem) -> tuple[Splitting, np.ndarray, np.ndarray]:
    """Cached (splitting, embed isometry, guard mask) for a system.

    The splitting holds the only eigendecompositions propagation needs.
    """
    drift_vals, drift_vecs = np.linalg.eigh(drift_hamiltonian(sys))
    a = lowering_operator(sys.levels)
    ladder_vals, ladder_vecs = np.linalg.eigh(a + a.conj().T)
    lowering = ladder_vecs.conj().T @ a @ ladder_vecs
    outer = np.einsum("ik,jk->kij", ladder_vecs, ladder_vecs.conj()).reshape(len(a), -1)
    embed = embed_isometry(sys)
    mask = sys.guard_mask()
    for arr in (drift_vals, drift_vecs, ladder_vals, ladder_vecs, lowering, outer, mask):
        arr.setflags(write=False)
    split = Splitting(sys.num_qudits, drift_vals, drift_vecs, ladder_vals, ladder_vecs, lowering,
                      outer)
    return split, embed, mask


@dataclass(frozen=True, eq=False)
class StepGrid:
    """A read-only step grid: step size, spline basis and carrier phases at the
    step midpoints, stored steps (0 to n_steps, decimated) and guard weights."""

    dt: float
    midpoints: SampleGrid
    stored: np.ndarray
    weights: np.ndarray


# One step grid stays cached: an optimizer run evaluates many pulses on one
# grid, and the grid of the largest benchmark system (2q d=3, 150 ns, 1,950
# steps at 13 steps/ns) holds 0.53 MB.
@lru_cache(maxsize=1)
def step_grid(T: float, steps_per_ns: int, N_b: int, carriers: tuple, n_cols: int) -> StepGrid:
    """The grid of [0, T] at ``steps_per_ns`` for pulses with these N_b and
    carriers.  Guard penalty = weights @ (guard population summed over the
    ``n_cols`` columns): the trapezoid rule's time average over the stored
    times of the column-averaged guard population."""
    n_steps = max(1, int(round(T * steps_per_ns)))
    dt = T / n_steps
    stride = max(1, -(-n_steps // MAX_STORED_STEPS))
    stored = np.append(np.arange(0, n_steps, stride), n_steps)
    times = stored * dt
    weights = np.gradient(times)  # trapezoid weights: half the neighbours' span
    weights[[0, -1]] *= 0.5  # the ends have one neighbour
    weights /= (times[-1] - times[0]) * n_cols
    stored.setflags(write=False)
    weights.setflags(write=False)
    midpoints = sample_grid(N_b, T, carriers, (np.arange(n_steps) + 0.5) * dt)
    return StepGrid(dt, midpoints, stored, weights)


def _expm1i(x: np.ndarray) -> np.ndarray:
    """exp(-1j * x) - 1 without cancellation for small x."""
    return -2.0 * np.sin(0.5 * x) ** 2 - 1j * np.sin(x)


@lru_cache(maxsize=8)
def _drift_exponential(split: Splitting, t: float) -> np.ndarray:
    """exp(-1j * t * H0), read-only: every block of a sweep asks for it."""
    vecs = split.drift_vecs
    out = np.eye(len(vecs)) + _gemm(vecs * _expm1i(t * split.drift_vals), vecs.conj().T)
    out.setflags(write=False)
    return out


def _partitions(count: int, most: int) -> list[tuple[int, int]]:
    """(lo, hi) of the fewest near-equal chunks of ``count`` items that hold at
    most ``most`` each."""
    parts = -(-count // max(1, most))
    return [(count * i // parts, count * (i + 1) // parts) for i in range(parts)]


def _row_limit(const: np.ndarray) -> int:
    """Rows of a GEMM with ``const`` that keep m * k * n < GEMM_THREAD_BOUND."""
    return max(1, (GEMM_THREAD_BOUND - 1) // const.size)


def _gemm(rows: np.ndarray, const: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """rows @ const for a stack of rows (..., k) and a constant (k, n): 2D GEMMs
    over near-equal chunks of m rows, m * k * n < ``GEMM_THREAD_BOUND``, so each
    runs on one BLAS thread and, where m >= 3, none is a matrix-vector product,
    which BLAS rounds differently.  ``out``, if given, is a C-contiguous array
    of as many elements as the product, which it is written into."""
    flat = rows.reshape(-1, rows.shape[-1])
    shape = (len(flat), const.shape[1])
    out = np.empty(shape, dtype=complex) if out is None else out.reshape(shape)
    for lo, hi in _partitions(len(flat), _row_limit(const)):
        np.matmul(flat[lo:hi], const, out=out[lo:hi])
    return out.reshape(rows.shape[:-1] + const.shape[1:])


def _left_gemm(const: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """const @ stack[i] for each matrix of a stack, through the transposes."""
    return _gemm(stack.swapaxes(1, 2), const.T).swapaxes(1, 2)


def _qudit_exponential(split: Splitting, p: np.ndarray, q: np.ndarray,
                       dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues r D, phases R = exp(-1j theta N) and exp(-1j dt (p A + q B))
    of each qudit's control term at each sample of p, q (qudits, samples)."""
    levels = len(split.ladder_vals)
    vals = np.hypot(p, q)[..., None] * split.ladder_vals
    phases = np.exp(-1j * np.arctan2(q, p)[..., None] * np.arange(levels))
    # I + (R R^H) o (f @ O), f = exp(-1j dt r D) - 1, keeps the rounding of
    # W W^H out of the identity part, so the steps' norm error does not add up.
    kmat = _gemm(_expm1i(dt * vals), split.ladder_outer).reshape(p.shape + (levels, levels))
    kmat *= phases[..., :, None] * phases.conj()[..., None, :]
    kmat += np.eye(levels)
    return vals, phases, kmat


def step_unitaries(split: Splitting, p: np.ndarray, q: np.ndarray, dt: float,
                   sl: slice) -> tuple[tuple, np.ndarray]:
    """Per-qudit control factors and merged steps for one chunk of midpoints.

    Returns (qudits, steps): the (eigvals, phases, exponentials) of the
    qudits' control terms, fresh arrays with leading axes (qudit, step), and
    ``merged_steps`` of them.
    """
    qudits = _qudit_exponential(split, p[:, sl], q[:, sl], dt)
    return qudits, merged_steps(split, qudits[2], dt)


def _buffer(name: str, shape: tuple) -> np.ndarray:
    """This thread's step-build buffer ``name``, of the latest shape asked for."""
    arr = getattr(_buffers, name, None)
    if arr is None or arr.shape != shape:
        arr = np.empty(shape, dtype=complex)
        setattr(_buffers, name, arr)
    return arr


def merged_steps(split: Splitting, kmats: np.ndarray, dt: float) -> np.ndarray:
    """M = K E^2 at each step from the qudits' control exponentials ``kmats``
    (qudit, step, L, L), K = K_1 (x) K_2 on two qudits.

    The steps are a view of this thread's step buffers, valid until this
    thread's next call.  The buffers hold the steps of at least a block and,
    on two qudits only, the K_2 rows of one partition; only the most recent
    shape is kept, and it outlives the sweeps: glibc hands arrays of a
    block's size back to the kernel when they are freed, and fresh ones
    cost about 90 minor page faults per 2q d=2 build.
    """
    size, levels, n = kmats.shape[1], kmats.shape[2], len(split.drift_vals)
    steps = _buffer("steps", (max(size, block_length(n)), n, n))[:size]
    drift = _drift_exponential(split, dt)
    if split.num_qudits == 1:
        return _gemm(kmats[0], drift, out=steps)
    # (K_1 (x) K_2) E^2: per partition of whole steps, K_2 on the second
    # qudit's index of E^2 as one GEMM, then K_1 on the first qudit's as L
    # products (L x L) @ (L x n) per step, written through a transposed view
    # of the steps.  K_1 reads only its own (step, level) row of K_2's.
    drift = drift.reshape(levels, levels, -1).swapaxes(0, 1).reshape(levels, -1)
    most = max(1, min(_row_limit(drift) // levels, SWEEP_BYTES // (16 * drift.size)))
    rows = _buffer("rows", (most, levels, levels, n))
    out = steps.reshape(size, levels, levels, n).swapaxes(1, 2)
    for lo, hi in _partitions(size, most):
        raw = rows[:hi - lo]
        np.matmul(kmats[1, lo:hi].reshape(-1, levels), drift, out=raw.reshape(-1, drift.shape[1]))
        np.matmul(kmats[0, lo:hi, None], raw, out=out[lo:hi])
    return steps


def _group_size(n: int, reverse: bool = False) -> int:
    """Steps per group of a sweep's product for n x n steps.  A group costs
    one extra n x n product per step, and in the reverse sweep also a guard
    sum.  On a 2-core Xeon that was cheaper than the numpy calls it saves up
    to n = 16 in the forward sweep (10% slower at n = 25, 2q d=3) and up to
    n = 10 in the reverse sweep (5% slower at n = 16, 2q d=2).  It does not
    grow with the block: at 1q d=5, 4,400 steps, reverse groups of
    isqrt(block) = 25 put test_rebuilt_states_match_stored_states at 1.9e-13
    relative, 9x its 2e-14 bound; groups of 11 put it at 7.0e-15."""
    return math.isqrt(BLOCK) if n <= (10 if reverse else 16) else 1


def block_length(n: int) -> int:
    """Steps per block of both sweeps for n x n steps (see ``BLOCK``)."""
    return max(BLOCK, BLOCK * 16**2 // n**2)


def sub_block_length(n: int, h: int) -> int:
    """Steps per sub-block of the reverse sweep's per-step work for n x n
    steps and h columns (see ``SWEEP_BYTES``)."""
    return max(1, SWEEP_BYTES // (16 * n * h))


def _block_edges(n_steps: int, length: int) -> list[tuple[int, int]]:
    """(start, stop) of each block of ``length`` steps, aligned to the end of
    the pulse: only the first block can be short, so the last block, which
    the forward sweep hands to the reverse sweep, is a full one."""
    return [(max(0, stop - length), stop) for stop in range(n_steps, 0, -length)][::-1]


def _chain_product(steps: np.ndarray) -> np.ndarray:
    """steps[-1] @ ... @ steps[0], as log2 stacked products of neighbours,
    each split by rows as ``_gemm`` splits its products."""
    parts = _partitions(steps.shape[1], _row_limit(steps[0]))
    while len(steps) > 1:
        left, right = steps[1::2], steps[:-1:2]
        pairs = np.empty(left.shape, dtype=complex)
        for lo, hi in parts:
            np.matmul(left[:, lo:hi], right, out=pairs[:, lo:hi])
        steps = np.concatenate((pairs, steps[-1:])) if len(steps) % 2 else pairs
    return steps[0]


def propagate_sequence(
    split: Splitting,
    p: np.ndarray,
    q: np.ndarray,
    dt: float,
    initial: np.ndarray,
    store: np.ndarray,
) -> tuple[np.ndarray, tuple | None]:
    """Apply the Strang steps defined by control samples p, q.

    ``p`` and ``q`` (K, n_steps) hold the control values at the step
    midpoints.  Returns (states, last): the states at the strictly increasing
    step indices in ``store`` (not empty) as one array (len(store),) +
    initial.shape, and the read-only per-qudit control factors of the last
    block for ``reverse_sequence`` (None for a pulse of no steps).
    """
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise PropagationError("controls produced non-finite values")
    n_steps = p.shape[1]
    wanted = np.asarray(store, dtype=int)
    if (wanted.size == 0 or np.any(np.diff(wanted) <= 0)
            or not 0 <= wanted[0] <= wanted[-1] <= n_steps):
        raise ValueError("store must be strictly increasing step indices")
    states = np.empty((len(wanted),) + np.shape(initial), dtype=complex)
    half = _drift_exponential(split, 0.5 * dt)
    chi = np.matmul(half.conj().T, np.asarray(initial, dtype=complex))
    n = len(half)
    length = block_length(n)
    chis = np.empty((min(length, n_steps),) + chi.shape, dtype=complex)
    group = _group_size(n)
    last = None
    slot = 0
    if wanted[0] == 0:
        states[0] = initial
        slot = 1
    for start, stop in _block_edges(n_steps, length):
        qudits, steps = step_unitaries(split, p, q, dt, slice(start, stop))
        block = chis[: stop - start]
        # A block that stores no state before its last step needs only the
        # product of its steps, which leaves them as they are.
        chained = slot == len(wanted) or wanted[slot] >= stop
        if stop == n_steps:
            # Fresh arrays, from which the reverse sweep rebuilds the steps
            # in its own buffers.
            last = qudits
            for arr in last:
                arr.setflags(write=False)
        if chained:
            chi = block[-1] = np.matmul(_chain_product(steps), chi)
        else:
            # Prefix products within each group of steps, all groups at once,
            # each group's applied to chi as one GEMM of its stacked rows.
            for i in range(1, group):
                head = steps[i::group]
                np.matmul(head, steps[i - 1::group][: len(head)], out=head)
            rows, out = steps.reshape(-1, n), block.reshape(-1, chi.shape[1])
            for s in range(0, len(rows), group * n):
                chi = np.matmul(rows[s:s + group * n], chi, out=out[s:s + group * n])[-n:]
        top = np.searchsorted(wanted, stop, side="right")
        states[slot:top] = _left_gemm(half, chis[wanted[slot:top] - start - 1])
        slot = top
    return states, last


def _exp_derivative_kernel(evals: np.ndarray, dt: float) -> np.ndarray:
    """Divided differences (f(l_i) - f(l_j)) / (l_i - l_j) of f = exp(-1j*dt*x) on
    eigenvalue grids (..., n), exact on the diagonal and stable for any gap."""
    half = np.exp(-0.5j * dt * evals)  # exp(-1j*dt*mean) = half_i * half_j
    gap = evals[..., :, None] - evals[..., None, :]
    sinc = np.sinc(dt * gap / (2.0 * np.pi))
    return (-1j * dt) * half[..., :, None] * half[..., None, :] * sinc


def _traced_pair(kets: np.ndarray, bras: np.ndarray, kmat: np.ndarray) -> np.ndarray:
    """T[x, j] = sum(kets[x, y, c] bras[c, j, k] kmat[k, y] over y, k, c) per
    step: the first qudit's block of kets bras (I (x) K), traced over the
    second qudit, as two batched products."""
    size, levels, _, cols = kets.shape
    inner = np.matmul(bras.reshape(size, -1, levels), kmat).reshape(size, cols, levels, levels)
    return np.matmul(kets.reshape(size, levels, -1),
                     inner.transpose(0, 3, 1, 2).reshape(size, -1, levels))


def reverse_sequence(split: Splitting, p: np.ndarray, q: np.ndarray, dt: float,
                     store: np.ndarray, states: np.ndarray, lam: np.ndarray,
                     weights: np.ndarray, mask: np.ndarray,
                     last: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of ``propagate_sequence``: (dJ/dp, dJ/dq), each shaped like p.

    ``states[i]`` is the state after ``store[i]`` steps, with ``store[-1]`` =
    n_steps; ``lam`` = dJ/d conj(states[-1]), and J adds the running cost
    ``weights[i] * sum(|states[i][mask]|^2)``.  The states ``store`` misses
    are rebuilt backwards.  ``last`` is the forward sweep's per-qudit control
    factors of the last block, from which it builds that block's steps; it
    is only read.
    """
    n_steps = p.shape[1]
    n_q, levels = split.num_qudits, len(split.ladder_vals)
    lowering, vecs = split.ladder_lowering, split.ladder_vecs
    half = _drift_exponential(split, 0.5 * dt)
    drift = _drift_exponential(split, dt)
    n, h = len(half), lam.shape[1]
    group = _group_size(n, reverse=True)
    length = min(block_length(n), n_steps)
    sub = min(length, sub_block_length(n, h))
    # Rows :h hold mu_m = lambda_m^H E, so lambda_m = S_m^H lambda_{m+1} plus
    # the guard term of step m is mu_m = mu_{m+1} M_m + coef[m] psi_m^H mask E.
    # Unless ``store`` holds every step, rows h: hold chi_m^H = psi_m^H E =
    # chi_{m+1}^H M_m, the same recurrence without a guard term, so each
    # product updates both; they restart from the stored state at each step
    # on the grid that tops a group, so their rounding builds up over few
    # steps.  Per-step recurrences (group 1) run a sub-block at a time, the
    # grouped ones a block at a time.
    rebuild = len(store) <= n_steps
    mus = np.empty(((sub if group == 1 else length) + 1, 2 * h if rebuild else h, n),
                   dtype=complex)
    coef = np.zeros(n_steps + 1)
    coef[store] = weights
    final = states[-1].conj().T
    mu = lam.conj().T + coef[n_steps] * (final * mask)
    mu = _gemm(np.concatenate([mu, final]) if rebuild else mu, half)
    big = rebuild and 2 * h * half.size >= GEMM_THREAD_BOUND
    lower = np.empty((n_q, n_steps), dtype=complex)
    upper = np.empty((n_q, n_steps), dtype=complex)

    # The recurrence and the sensitivities run in calls whose arrays die when
    # they return, so their temporaries are freed before the next call and
    # only a block's control factors outlive them; its steps stay in this
    # thread's buffers.
    def recurrence(start: int, stop: int, mu: np.ndarray, steps: np.ndarray) -> None:
        """mus[i] = rows_{start+i} for i <= size from mu = rows_stop, through
        the steps from start to stop."""
        size = stop - start
        # The guard terms, built only at the steps that have one, and kept
        # only there where the recurrence goes step by step.
        hot = np.flatnonzero(coef[start:stop])
        guard = states[np.searchsorted(store, start + hot)].conj().swapaxes(1, 2) * mask
        terms = _gemm(coef[start + hot, None, None] * guard, half)
        restart = {}
        if rebuild:
            lo, top = np.searchsorted(store, [start, stop + 1])
            tops = lo + np.flatnonzero((stop - store[lo:top]) % group == 0)
            restart = dict(zip(store[tops].tolist(),
                               _gemm(states[tops].conj().swapaxes(1, 2), half)))
        mus[size] = mu
        if group == 1:
            injected = dict(zip(hot.tolist(), terms))
            rows, ops = list(mus[:size + 1]), list(steps)  # views, for the per-step loop
            for i in range(size - 1, -1, -1):
                if start + i + 1 in restart:
                    rows[i + 1][h:] = restart[start + i + 1]
                if big:
                    np.matmul(rows[i + 1][:h], ops[i], out=rows[i][:h])
                    np.matmul(rows[i + 1][h:], ops[i], out=rows[i][h:])
                else:
                    np.matmul(rows[i + 1], ops[i], out=rows[i])
                if i in injected:
                    rows[i][:h] += injected[i]
            return
        # Counted from the top of the block down, the steps r0..r of a group
        # give mu_r = mu_{r0-1} P_r + G_r with the suffix products
        # P_r = P_{r-1} M_r and guard sums G_r = G_{r-1} M_r + injected_r,
        # built for all groups at once; P overwrites the block's steps, which
        # sit in this thread's buffers and are not read again.
        injected = np.zeros((size, h, n), dtype=complex)
        injected[hot] = terms
        suffix, sums = steps[::-1], injected[::-1]
        for i in range(1, group):
            head = suffix[i::group]
            sums[i::group] += np.matmul(sums[i - 1::group][: len(head)], head)
            np.matmul(suffix[i - 1::group][: len(head)], head, out=head)
        guarded = (coef[start:stop] != 0)[::-1].tolist()
        rows = mus[:size][::-1]
        mu = mus[size]  # the rows overwrite mus[0]
        for r in range(0, size, group):
            if stop - r in restart:
                mu[h:] = restart[stop - r]
            np.matmul(mu, suffix[r:r + group], out=rows[r:r + group])
            if any(guarded[r:r + group]):
                rows[r:r + group, :h] += sums[r:r + group]
            mu = rows[min(r + group, size) - 1]

    def sensitivities(start: int, stop: int, rows: np.ndarray, qudits: tuple) -> None:
        """The steps' sensitivities from start to stop, from ``rows`` =
        rows_start .. rows_stop and those steps' control factors."""
        size = stop - start
        # S_m = E K_m E, so K_m's derivative sees E psi_m = E^2 chi_m and
        # mu_{m+1}: dJ/dc = 2 Re sum(G o (W^H T W)^T o W^H C W) for a control
        # operator C on one qudit with eigenbasis W, G the divided-difference
        # kernel of exp on that qudit's eigenvalues and T = E psi_m mu_{m+1}.
        # On two qudits the other qudit's K is contracted in and traced out:
        # the kernel's blocks diagonal in that qudit are its phases times G.
        if rebuild:
            kets = _left_gemm(drift, rows[:size, h:].conj().swapaxes(1, 2))
        else:
            kets = _left_gemm(half, states[start:stop])
        bras = rows[1:, :h]
        vals, phases, kmats = qudits
        if n_q == 1:
            reduced = np.matmul(kets, bras)[None]
        else:
            kets = kets.reshape(size, levels, levels, -1)
            bras = bras.reshape(size, -1, levels, levels)
            reduced = np.stack([_traced_pair(kets, bras, kmats[1]),
                                _traced_pair(kets.swapaxes(1, 2), bras.swapaxes(2, 3), kmats[0])])
        # W = R V, so (W^H T W)^T = (R^H T R V)^T conj(V).  With alpha = V^H a V,
        # W^H A W = e^{-i theta} alpha + e^{i theta} alpha^H and W^H B W =
        # 1j (e^{-i theta} alpha - e^{i theta} alpha^H), e^{-i theta} = R[..., 1],
        # for all qudits at once.
        projected = _gemm(phases.conj()[..., :, None] * reduced * phases[..., None, :], vecs)
        pair = _gemm(projected.swapaxes(-1, -2), vecs.conj())
        weighted = _exp_derivative_kernel(vals, dt) * pair
        phase = phases[..., 1]
        lower[:, start:stop] = phase * np.einsum("kbij,ij->kb", weighted, lowering)
        upper[:, start:stop] = phase.conj() * np.einsum("kbij,ji->kb", weighted, lowering.conj())

    for start, stop in reversed(_block_edges(n_steps, length)):
        if stop == n_steps:
            qudits, steps = last, merged_steps(split, last[2], dt)
        else:
            qudits, steps = step_unitaries(split, p, q, dt, slice(start, stop))
        if group > 1:
            recurrence(start, stop, mu, steps)
        # Sub-blocks of the block, from its top down.
        for lo, hi in reversed(_partitions(stop - start, sub)):
            if group == 1:
                recurrence(start + lo, start + hi, mu, steps[lo:hi])
            rows = mus[:hi - lo + 1] if group == 1 else mus[lo:hi + 1]
            sensitivities(start + lo, start + hi, rows, tuple(arr[:, lo:hi] for arr in qudits))
            mu = mus[0]
    return 2.0 * np.real(lower + upper), -2.0 * np.imag(lower - upper)


def guard_population_columns(states: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-column population on guard-containing basis states of a stack of
    states (S, n, h).  Only the guard rows are copied, from chunks of states
    of at most SWEEP_BYTES / 32 entries: with the step buffers alive, a copy
    of all of them (2.25 MB at 2q d=3, 150 ns) set a forward's peak memory."""
    pop = np.empty((len(states), states.shape[-1]))
    chunk = max(1, SWEEP_BYTES // 32 // states[0].size)
    for s in range(0, len(states), chunk):
        part = np.abs(states[s:s + chunk, mask])
        part *= part
        part.sum(axis=-2, out=pop[s:s + chunk])
    return pop


@dataclass(frozen=True)
class Trajectory:
    """One forward sweep: states (S, n, h) and guard_pop (S, h) after
    ``steps`` (S,) steps of ``grid``, the controls p, q (K, n_steps) at its
    step midpoints, and ``last``, the read-only per-qudit control factors of
    the last block from ``propagate_sequence``, from which the reverse sweep
    rebuilds its steps.

    ``states[s, :, c]`` is essential basis column c at time ``times[s]``;
    ``guard_pop[s, c]`` is that column's total population on
    guard-containing basis states.
    """

    states: np.ndarray
    guard_pop: np.ndarray
    steps: np.ndarray
    grid: StepGrid
    p: np.ndarray
    q: np.ndarray
    last: tuple

    @property
    def times(self) -> np.ndarray:
        return self.steps * self.grid.dt


def propagate(
    sys: QuditSystem,
    params: PulseParams,
    steps_per_ns: int | None = None,
    store_trajectory: bool = True,
) -> Trajectory:
    """Evolve the essential basis columns under drift plus controls.

    With ``store_trajectory`` the Trajectory holds the states on the grid's
    stored steps; otherwise only the initial and final states.
    """
    if steps_per_ns is None:
        steps_per_ns = default_steps_per_ns(sys)
    if steps_per_ns < 1:
        raise ValueError("steps_per_ns must be >= 1")
    split, embed, mask = system_operators(sys)
    grid = step_grid(params.T, steps_per_ns, params.N_b, params.carriers, sys.dim_essential)
    p, q = eval_controls(params, grid.midpoints)
    steps = grid.stored if store_trajectory else np.asarray([0, p.shape[1]])
    states, last = propagate_sequence(split, p, q, grid.dt, embed, steps)
    return Trajectory(states, guard_population_columns(states, mask), steps, grid, p, q, last)


def guard_populations(traj: Trajectory) -> np.ndarray:
    """Column-averaged guard population at each stored time."""
    n_cols = traj.states.shape[-1]
    return traj.guard_pop.sum(axis=-1) / n_cols
