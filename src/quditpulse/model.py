"""Transmon qudit model: ladder operators, the rotating-frame drift
Hamiltonian, guard-level embedding, and the generalized gate library.

Each qudit is driven by p_k(t) A_k + q_k(t) B_k with A = a + a^dag and
B = 1j (a - a^dag), a its lowering operator.  ``dynamics`` applies them in
closed form from the eigenpairs of a + a^dag; the explicit pairs are the
tests' reference, in tests/reference.py.

Unit conventions: all frequencies are angular and stored in rad/ns
(2*pi times the value in GHz), time is in ns, and hbar = 1, so a
propagation step is exp(-1j * H * dt) with no extra factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi

# Realistic transmon parameters used as defaults throughout (GHz).
DEFAULT_OMEGA_GHZ = (4.914, 5.114)
DEFAULT_XI_GHZ = (-0.330, -0.330)
DEFAULT_COUPLING_GHZ = 0.0038

GATE_NAMES = ("X_d", "Xs_d", "H_d", "T_d", "Z_d", "SWAP_d", "CNOT", "SWAP2")

# Gates acting on the composite space of two qudits.
TWO_QUDIT_GATES = ("SWAP_d", "CNOT", "SWAP2")


@dataclass(frozen=True)
class QuditSystem:
    """One or two weakly coupled anharmonic transmons.

    ``d`` essential levels per qudit plus ``guard`` extra levels are
    simulated; the guard levels exist only to detect and penalize leakage.
    All frequencies in rad/ns.
    """

    num_qudits: int
    d: int
    guard: int
    omega: tuple[float, ...]
    xi: tuple[float, ...]
    coupling: float
    omega_rot: float

    def __post_init__(self) -> None:
        if self.num_qudits not in (1, 2):
            raise ValueError(f"num_qudits must be 1 or 2, got {self.num_qudits}")
        if self.d < 2:
            raise ValueError(f"need at least 2 essential levels, got d={self.d}")
        if self.guard < 0:
            raise ValueError(f"guard levels must be >= 0, got {self.guard}")
        if len(self.omega) != self.num_qudits or len(self.xi) != self.num_qudits:
            raise ValueError("omega and xi must have one entry per qudit")
        if self.num_qudits == 1 and self.coupling != 0.0:
            raise ValueError("coupling must be 0 for a single qudit")

    @property
    def levels(self) -> int:
        """Simulated levels per qudit (essential plus guard)."""
        return self.d + self.guard

    @property
    def dim_total(self) -> int:
        """Dimension of the full simulated Hilbert space."""
        return self.levels**self.num_qudits

    @property
    def dim_essential(self) -> int:
        """Dimension of the computational subspace the target acts on."""
        return self.d**self.num_qudits

    def guard_mask(self) -> np.ndarray:
        """Boolean mask over the full basis, True where any qudit is in a guard level."""
        n = self.levels
        idx = np.arange(self.dim_total)
        if self.num_qudits == 1:
            return idx >= self.d
        return (idx // n >= self.d) | (idx % n >= self.d)


def carrier_midpoint(omega: tuple[float, ...], xi: tuple[float, ...], d: int) -> float:
    """Midpoint of the extreme lab carriers omega_k + j*xi_k, j = 0..d-2."""
    labs = [w + j * x for w, x in zip(omega, xi) for j in range(d - 1)]
    return 0.5 * (max(labs) + min(labs))


def transmon_system(
    num_qudits: int = 1,
    d: int = 2,
    guard: int = 2,
    omega_ghz: tuple[float, ...] = DEFAULT_OMEGA_GHZ,
    xi_ghz: tuple[float, ...] = DEFAULT_XI_GHZ,
    coupling_ghz: float = DEFAULT_COUPLING_GHZ,
    omega_rot_ghz: float | None = None,
) -> QuditSystem:
    """Build a QuditSystem from frequencies given in GHz.

    When ``omega_rot_ghz`` is None the rotating-frame frequency defaults to
    ``carrier_midpoint`` of the converted frequencies.
    """
    if d < 2:  # checked before carrier_midpoint, which needs a carrier
        raise ValueError(f"need at least 2 essential levels, got d={d}")
    for key, values in (("omega_ghz", omega_ghz), ("xi_ghz", xi_ghz)):
        if len(values) < num_qudits:
            raise ValueError(f"{key} has {len(values)} entries for {num_qudits} qudits")
    omega = tuple(TWO_PI * w for w in omega_ghz[:num_qudits])
    xi = tuple(TWO_PI * x for x in xi_ghz[:num_qudits])
    coupling = TWO_PI * coupling_ghz if num_qudits == 2 else 0.0
    if omega_rot_ghz is not None:
        omega_rot = TWO_PI * omega_rot_ghz
    else:
        omega_rot = carrier_midpoint(omega, xi, d)
    for key, values in (("omega_ghz", omega), ("xi_ghz", xi), ("coupling_ghz", [coupling]),
                        ("omega_rot_ghz", [omega_rot])):
        if not all(math.isfinite(f * f) for f in values):
            raise ValueError(f"{key} gives a frequency in rad/ns whose square is not finite")
    return QuditSystem(num_qudits, d, guard, omega, xi, coupling, omega_rot)


@dataclass(frozen=True)
class GateSpec:
    """A named target unitary on the essential space of dimension ``dim_h``."""

    name: str
    dim_h: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim_h, self.dim_h):
            raise ValueError(f"matrix shape {m.shape} does not match dim_h={self.dim_h}")
        dev = np.max(np.abs(m.conj().T @ m - np.eye(self.dim_h)))
        if dev >= 1e-12:
            raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")
        object.__setattr__(self, "matrix", m)


def lowering_operator(n: int) -> np.ndarray:
    """Harmonic-ladder lowering operator truncated to n levels."""
    if n < 2:
        raise ValueError(f"lowering operator needs n >= 2 levels, got {n}")
    a = np.zeros((n, n), dtype=complex)
    ks = np.arange(1, n)
    a[ks - 1, ks] = np.sqrt(ks)
    return a


def drift_hamiltonian(sys: QuditSystem) -> np.ndarray:
    """Time-independent part of the rotating-frame Hamiltonian.

    Sum over qudits of detuning and anharmonicity terms, plus the
    excitation-exchange coupling for two qudits.
    """
    low, eye = lowering_operator(sys.levels), np.eye(sys.levels)
    ops = [low] if sys.num_qudits == 1 else [np.kron(low, eye), np.kron(eye, low)]
    h = np.zeros((sys.dim_total, sys.dim_total), dtype=complex)
    for k, a in enumerate(ops):
        num = a.conj().T @ a
        h += (sys.omega[k] - sys.omega_rot) * num
        h += 0.5 * sys.xi[k] * (a.conj().T @ a.conj().T @ a @ a)
    if sys.num_qudits == 2:
        a1, a2 = ops
        h += sys.coupling * (a1.conj().T @ a2 + a2.conj().T @ a1)
    return h


def _single_qudit_gate(name: str, d: int) -> np.ndarray:
    wd = np.exp(2j * np.pi / d)
    if name == "X_d":
        m = np.zeros((d, d), dtype=complex)
        for k in range(d):
            m[(k + 1) % d, k] = 1.0
        return m
    if name == "Xs_d":
        m = np.eye(d, dtype=complex)
        m[0, 0] = m[d - 1, d - 1] = 0.0
        m[0, d - 1] = m[d - 1, 0] = 1.0
        return m
    if name == "H_d":
        j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        return wd ** (j * k) / np.sqrt(d)
    if name == "T_d":
        return np.diag(np.exp(2j * np.pi * np.arange(d) / (4 * d)))
    if name == "Z_d":
        return np.diag(wd ** np.arange(d))
    raise ValueError(f"unknown gate {name!r}")


def gate(name: str, d: int = 2) -> GateSpec:
    """Target unitary from the gate library.

    Single-qudit gates act on dimension d; SWAP_d acts on d**2; CNOT and
    SWAP2 are the qubit (d=2) two-qudit gates.
    """
    if name not in GATE_NAMES:
        raise ValueError(f"unknown gate {name!r}; choose from {GATE_NAMES}")
    if d < 2:
        raise ValueError(f"gate dimension must be >= 2, got {d}")
    if name == "CNOT" or name == "SWAP2":
        if d != 2:
            raise ValueError(f"{name} is defined for d=2 only")
        if name == "CNOT":
            m = np.zeros((4, 4), dtype=complex)
            for q1 in range(2):
                for q2 in range(2):
                    m[q1 * 2 + (q2 ^ q1), q1 * 2 + q2] = 1.0
            return GateSpec("CNOT", 4, m)
        name = "SWAP_d"
    if name == "SWAP_d":
        m = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                m[j * d + i, i * d + j] = 1.0
        return GateSpec("SWAP_d", d * d, m)
    return GateSpec(name, d, _single_qudit_gate(name, d))


@lru_cache(maxsize=32)
def embed_isometry(sys: QuditSystem) -> np.ndarray:
    """Isometry mapping essential basis states into the full space, read-only.

    Its columns are the full basis states outside ``guard_mask``, in order,
    so composite essential index i*d + j goes to full index i*levels + j
    (row-major, first qudit is the slow index); guard rows are zero.
    """
    e = np.eye(sys.dim_total, dtype=complex)[:, ~sys.guard_mask()]
    e.setflags(write=False)
    return e


def embed_target(gate_spec: GateSpec, sys: QuditSystem) -> np.ndarray:
    """Pad a target unitary with zero rows on guard-containing basis states."""
    if gate_spec.dim_h != sys.dim_essential:
        raise ValueError(
            f"gate dimension {gate_spec.dim_h} does not match essential "
            f"dimension {sys.dim_essential}"
        )
    return embed_isometry(sys) @ gate_spec.matrix
