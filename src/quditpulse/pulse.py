"""Carrier-wave/B-spline pulse parameterization.

A control pulse for qudit k is built from N_f carrier waves at fixed
rotating-frame frequencies, each with a slowly varying complex envelope
expanded in N_b uniform quadratic B-splines:

    p_k(t) = sum_{j,b} Re{ alpha_{k,j,b} e^{i Omega_{k,j} t} } S_b(t)
    q_k(t) = sum_{j,b} Im{ alpha_{k,j,b} e^{i Omega_{k,j} t} } S_b(t)

The real coefficient vector alpha is laid out with index
((k*N_f + j)*N_b + b)*2 + c, c=0 for the real and c=1 for the imaginary
part.  The first and last spline of every (k, j) channel are pinned to
zero so pulses start and end quietly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .model import TWO_PI, QuditSystem

# The one integrator, named in every pulse document's metadata.
INTEGRATOR = "strang"


class RefitError(RuntimeError):
    """Raised when the least-squares re-parameterization is degenerate."""


@dataclass(frozen=True)
class PulseParams:
    """A concrete control pulse: duration, carriers, and spline coefficients."""

    T: float
    carriers: tuple[tuple[float, ...], ...]
    N_b: int
    alpha: np.ndarray
    alpha_max: float

    def __post_init__(self) -> None:
        if self.T <= 0:
            raise ValueError(f"duration must be positive, got {self.T}")
        if self.N_b < 3:
            raise ValueError(f"need at least 3 splines, got {self.N_b}")
        if not (self.carriers and self.carriers[0]):
            raise ValueError("need at least one control, each with at least one carrier")
        nf = len(self.carriers[0])
        if any(len(c) != nf for c in self.carriers):
            raise ValueError("all controls must carry the same number of carriers")
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.shape != (2 * self.num_controls * nf * self.N_b,):
            raise ValueError(
                f"alpha has length {alpha.size}, expected "
                f"{2 * self.num_controls * nf * self.N_b}"
            )
        if np.any(np.abs(alpha) > self.alpha_max * (1 + 1e-12)):
            raise ValueError("alpha exceeds the amplitude bound")
        if np.any(alpha[self.boundary_mask()] != 0.0):
            raise ValueError("boundary spline coefficients must be exactly zero")
        object.__setattr__(self, "alpha", alpha)

    @property
    def num_controls(self) -> int:
        return len(self.carriers)

    @property
    def num_carriers(self) -> int:
        return len(self.carriers[0])

    def alpha_complex(self) -> np.ndarray:
        """Coefficients as a complex (K, N_f, N_b) array."""
        a = self.alpha.reshape(self.num_controls, self.num_carriers, self.N_b, 2)
        return a[..., 0] + 1j * a[..., 1]

    def boundary_mask(self) -> np.ndarray:
        """Flat boolean mask selecting the pinned first/last spline coefficients."""
        mask = np.zeros((self.num_controls, self.num_carriers, self.N_b, 2), dtype=bool)
        mask[:, :, 0, :] = True
        mask[:, :, self.N_b - 1, :] = True
        return mask.reshape(-1)

    def with_alpha(self, alpha: np.ndarray) -> "PulseParams":
        return replace(self, alpha=np.asarray(alpha, dtype=float))


def carrier_frequencies(
    sys: QuditSystem,
) -> tuple[list[list[float]], list[list[float]]]:
    """Lab and rotating-frame carrier frequencies.

    Lab carriers for qudit k sit at its transition resonances
    omega_k + j*xi_k, j = 0..d-2.  Each single-qudit control carries its
    own d-1 resonances; for two qudits every control carries the union of
    both qudits' resonances (2(d-1) carriers) to exploit cross-resonance
    driving.  Rotating-frame values are lab values minus omega_rot.
    """
    lab = [
        [sys.omega[k] + j * sys.xi[k] for j in range(sys.d - 1)]
        for k in range(sys.num_qudits)
    ]
    if sys.num_qudits == 1:
        shared = lab
    else:
        union = lab[0] + lab[1]
        shared = [list(union) for _ in range(sys.num_qudits)]
    rot = [[f - sys.omega_rot for f in ctrl] for ctrl in shared]
    return lab, rot


def num_bsplines(T: float) -> int:
    """Spline count keeping the envelope density near one spline per 10 ns.

    Clamped below at 3 (two pinned boundary splines plus one interior) so
    that very short durations stay representable.
    """
    if T <= 0:
        raise ValueError(f"duration must be positive, got {T}")
    # Nearest integer with half-up tie break.
    return max(3, int(math.floor(T / 10.0 + 0.5)) + 2)


def alpha_bound(num_carriers: int) -> float:
    """Per-coefficient bound (rad/ns) keeping lab-frame amplitudes <= 2*pi*40 MHz."""
    if num_carriers < 1:
        raise ValueError("need at least one carrier")
    return TWO_PI * 40.0 / (2.0 * math.sqrt(2.0) * num_carriers) * 1e-3


def _bspline_kernel(u: np.ndarray) -> np.ndarray:
    """Centered uniform quadratic B-spline, support |u| <= 1.5, peak 3/4."""
    au = np.abs(u)
    return np.where(
        au <= 0.5,
        0.75 - u * u,
        np.where(au <= 1.5, 0.5 * (1.5 - au) ** 2, 0.0),
    )


def basis_matrix(N_b: int, T: float, t: np.ndarray) -> np.ndarray:
    """Values of all N_b basis splines at times t, shape (len(t), N_b).

    Spline centers are equally spaced from 0 to T, so every basis function
    spans three inter-center intervals.
    """
    if N_b < 3:
        raise ValueError(f"need at least 3 splines, got {N_b}")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t < -1e-9) or np.any(t > T * (1 + 1e-12) + 1e-9):
        raise ValueError("evaluation time outside [0, T]")
    spacing = T / (N_b - 1)
    centers = spacing * np.arange(N_b)
    return _bspline_kernel((t[:, None] - centers[None, :]) / spacing)


@dataclass(frozen=True, eq=False)
class SampleGrid:
    """The spline basis S_b(t) (M, N_b) and the carrier phases
    exp(1j Omega_{k,j} t) (K, N_f, M) at M sample times t: everything
    ``eval_controls`` and ``controls_adjoint`` need that does not depend on
    alpha."""

    basis: np.ndarray
    phases: np.ndarray


def sample_grid(N_b: int, T: float, carriers, t) -> SampleGrid:
    """The basis and carrier phases of pulses with these N_b, T and carriers at times t."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    phases = np.exp(1j * (np.asarray(carriers, dtype=float)[:, :, None] * t))
    grid = SampleGrid(basis_matrix(N_b, T, t), phases)
    for arr in (grid.basis, grid.phases):
        arr.setflags(write=False)
    return grid


def eval_controls(params: PulseParams, t) -> tuple[np.ndarray, np.ndarray]:
    """Rotating-frame control pair (p_k, q_k) at times t, in rad/ns.

    ``t`` is an array of M times or a ``SampleGrid`` built for ``params``.
    Returns two arrays of shape (K, M).
    """
    grid = t if isinstance(t, SampleGrid) else sample_grid(params.N_b, params.T, params.carriers, t)
    # einsum, not a BLAS product: at these shapes OpenBLAS runs threaded
    # and its workers then spin through the propagation that follows
    # (about 1.8x CPU per wall second on two cores, no wall-time gain).
    envelopes = np.einsum("kfb,mb->kfm", params.alpha_complex(), grid.basis)  # (K, N_f, M)
    total = np.sum(envelopes * grid.phases, axis=1)
    return total.real, total.imag


def controls_adjoint(grid: SampleGrid, sens) -> np.ndarray:
    """Adjoint of ``eval_controls`` on a grid: maps sens = (dJ/dp, dJ/dq) at
    the grid's times to dJ/dalpha, whose (real, imag) pair is
    sum_t z e^{-i Omega t} S_b(t) for z = dJ/dp + i dJ/dq."""
    z = (sens[0] + 1j * sens[1]).T  # (M, K)
    phases = grid.phases.conj().transpose(2, 0, 1)  # (M, K, N_f)
    coeff = np.einsum("mkf,mb->kfb", z[:, :, None] * phases, grid.basis)  # not BLAS, as above
    return np.stack([coeff.real, coeff.imag], axis=-1).reshape(-1)


def lab_frame_control(params: PulseParams, omega_rot: float, t) -> np.ndarray:
    """Lab-frame drive amplitude f_k(t) = 2*Re{(p_k + i q_k) e^{i omega_rot t}}."""
    p, q = eval_controls(params, t)
    t_arr = np.asarray(t, dtype=float)
    return 2.0 * (p * np.cos(omega_rot * t_arr) - q * np.sin(omega_rot * t_arr))


def default_params(sys: QuditSystem, T: float) -> PulseParams:
    """Zero-amplitude pulse with the standard carriers, spline count and bound."""
    _, rot = carrier_frequencies(sys)
    carriers = tuple(tuple(ctrl) for ctrl in rot)
    n_b = num_bsplines(T)
    n_f = len(carriers[0])
    alpha = np.zeros(2 * len(carriers) * n_f * n_b)
    return PulseParams(T, carriers, n_b, alpha, alpha_bound(n_f))


def random_guess(params: PulseParams, scale: float, rng) -> np.ndarray:
    """Uniform random coefficients in +-scale*alpha_max, boundary splines zero.

    ``rng`` is a numpy Generator or an integer seed.
    """
    if not 0.0 <= scale <= 1.0:
        raise ValueError(f"scale must lie in [0, 1], got {scale}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    bound = scale * params.alpha_max
    alpha = rng.uniform(-bound, bound, size=params.alpha.shape)
    alpha[params.boundary_mask()] = 0.0
    return alpha


# Oversampling factor of the least-squares grid relative to the spline spacing.
REFIT_SAMPLES_PER_INTERVAL = 8


def refit(params: PulseParams, T_new: float) -> PulseParams:
    """Re-parameterize a pulse for a new duration by least squares.

    The target waveform is the existing pulse on [0, min(T, T_new)],
    extended with zero amplitude beyond T when lengthening.  Each carrier's
    complex envelope is fitted independently on the new spline basis
    (the carrier factor is common to both sides, so fitting envelopes and
    fitting modulated waveforms are equivalent); results are clamped to
    the amplitude bound and the boundary splines are pinned back to zero.
    """
    n_b_new = num_bsplines(T_new)
    n_samples = REFIT_SAMPLES_PER_INTERVAL * (n_b_new - 1) + 1
    ts = np.linspace(0.0, T_new, n_samples)

    coeff = params.alpha_complex()  # (K, N_f, N_b)
    k_ctrl, n_f = coeff.shape[0], coeff.shape[1]
    inside = ts <= params.T * (1 + 1e-12)
    targets = np.zeros((k_ctrl, n_f, n_samples), dtype=complex)
    basis_old = basis_matrix(params.N_b, params.T, ts[inside])
    targets[:, :, inside] = coeff @ basis_old.T

    design = basis_matrix(n_b_new, T_new, ts)[:, 1:-1]  # interior splines only
    rhs = targets.reshape(k_ctrl * n_f, n_samples).T
    rhs = np.concatenate([rhs.real, rhs.imag], axis=1)
    solution, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < n_b_new - 2:
        raise RefitError(
            f"rank-deficient refit ({rank} < {n_b_new - 2}); grid too coarse"
        )

    # Columns hold the real parts of all (k, j) channels, then the imaginary ones.
    parts = solution.T.reshape(2, k_ctrl, n_f, n_b_new - 2)
    alpha = np.zeros((k_ctrl, n_f, n_b_new, 2))
    alpha[:, :, 1:-1] = np.moveaxis(np.clip(parts, -params.alpha_max, params.alpha_max), 0, -1)
    return replace(params, T=T_new, N_b=n_b_new, alpha=alpha.reshape(-1))


def pulse_doc(sys: QuditSystem, params: PulseParams, fidelity: float, metadata: dict,
              steps_per_ns: int) -> dict:
    """JSON-serializable pulse document (floats round-trip exactly).

    ``metadata`` gains the tool version, the integrator name and the claim
    resolution ``steps_per_ns``, because stored fidelities depend on all three.
    """
    return {
        "system": {
            "num_qudits": sys.num_qudits,
            "d": sys.d,
            "guard": sys.guard,
            "omega": list(sys.omega),
            "xi": list(sys.xi),
            "coupling_J": sys.coupling,
            "omega_rot": sys.omega_rot,
        },
        "T_ns": params.T,
        "carriers_rot": [list(c) for c in params.carriers],
        "N_b": params.N_b,
        "alpha": params.alpha.tolist(),
        "alpha_max": params.alpha_max,
        "fidelity": fidelity,
        "metadata": dict(metadata, tool_version=__version__, integrator=INTEGRATOR,
                         steps_per_ns=steps_per_ns),
    }


def _all_of(values, kind) -> bool:
    return all(isinstance(v, kind) and not isinstance(v, bool) for v in values)


def pulse_from_doc(doc: dict) -> tuple[QuditSystem, PulseParams, float, dict]:
    """Inverse of :func:`pulse_doc`: KeyError for a missing key, ValueError
    for a value of the wrong JSON type or a non-finite number."""
    s = doc["system"] if isinstance(doc, dict) else None
    if not (isinstance(s, dict) and isinstance(doc["metadata"], dict)):
        raise ValueError("the document, its system and its metadata must be objects")
    resolution = doc["metadata"].get("steps_per_ns", 1)
    if not (_all_of([resolution], int) and resolution >= 1):
        raise ValueError(f"metadata steps_per_ns must be a positive integer, got {resolution!r}")
    lists = [s["omega"], s["xi"], doc["alpha"], doc["carriers_rot"]]
    if not (_all_of(lists, list) and _all_of(lists[-1], list)):
        raise ValueError("omega, xi, alpha and carriers_rot must be lists, carriers_rot of lists")
    counts = [s["num_qudits"], s["d"], s["guard"], doc["N_b"]]
    reals = [s["coupling_J"], s["omega_rot"], doc["T_ns"], doc["alpha_max"], doc["fidelity"]]
    reals += [x for values in lists[:3] + lists[-1] for x in values]
    if not (_all_of(counts, int) and _all_of(reals, (int, float)) and all(map(math.isfinite, reals))):
        raise ValueError("pulse document values must be finite numbers, and counts integers")
    if len(doc["carriers_rot"]) != s["num_qudits"]:
        raise ValueError("carriers_rot must hold one carrier list per qudit")
    sys = QuditSystem(
        num_qudits=s["num_qudits"],
        d=s["d"],
        guard=s["guard"],
        omega=tuple(s["omega"]),
        xi=tuple(s["xi"]),
        coupling=s["coupling_J"],
        omega_rot=s["omega_rot"],
    )
    params = PulseParams(
        T=doc["T_ns"],
        carriers=tuple(tuple(c) for c in doc["carriers_rot"]),
        N_b=doc["N_b"],
        alpha=np.asarray(doc["alpha"], dtype=float),
        alpha_max=doc["alpha_max"],
    )
    return sys, params, doc["fidelity"], doc["metadata"]


def write_json(path, doc) -> None:
    """Write doc as indented JSON; NaN or infinity raise ValueError before the file opens."""
    text = json.dumps(doc, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def save_pulse(path, sys: QuditSystem, params: PulseParams, fidelity: float, metadata: dict,
               steps_per_ns: int) -> None:
    """Write a pulse and its system to JSON."""
    write_json(path, pulse_doc(sys, params, fidelity, metadata, steps_per_ns))


def load_pulse(path) -> tuple[QuditSystem, PulseParams, float, dict]:
    """Read a pulse JSON written by :func:`save_pulse`."""
    with open(path) as fh:
        return pulse_from_doc(json.load(fh))
