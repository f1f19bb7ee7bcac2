"""Per-step reference formulas that the sweep tests check ``reverse_sequence``
and ``backward`` against, the explicit control operators that ``dynamics``
applies in closed form, and the pulses and pulse files the tests share."""

import numpy as np

from quditpulse import dynamics
from quditpulse.dynamics import default_steps_per_ns, step_unitaries, system_operators
from quditpulse.model import lowering_operator
from quditpulse.pulse import default_params, random_guess, save_pulse


def random_pulse(sys, T, scale, seed):
    """The standard pulse of ``sys`` over T ns with ``random_guess(scale, seed)``
    coefficients."""
    params = default_params(sys, T)
    return params.with_alpha(random_guess(params, scale, seed))


def write_pulse(path, sys, params=None, fidelity=1.0, metadata=None):
    """Write a pulse file at the claim resolution of the error rule, as the
    CLI writers do; by default the 10 ns zero pulse."""
    params = default_params(sys, 10.0) if params is None else params
    save_pulse(path, sys, params, fidelity, metadata or {}, default_steps_per_ns(sys))


def control_operators(sys):
    """Per-qudit drive operator pairs (A_k, B_k) on the full space, both
    Hermitian: A = a + a^dag couples to the in-phase control p_k(t),
    B = 1j (a - a^dag) to the quadrature q_k(t), a the qudit's lowering
    operator."""
    low, eye = lowering_operator(sys.levels), np.eye(sys.levels)
    ops = [low] if sys.num_qudits == 1 else [np.kron(low, eye), np.kron(eye, low)]
    return [(a + a.conj().T, 1j * (a - a.conj().T)) for a in ops]


def control_hamiltonian(ops, p, q, m):
    """sum_k p_k A_k + q_k B_k at step m."""
    return sum(p[k, m] * a_op + q[k, m] * b_op for k, (a_op, b_op) in enumerate(ops))


def per_step_sensitivities(sys, p, q, dt, states, lam, coef):
    """(dJ/dp, dJ/dq), each shaped like p, by a reverse loop over one step at
    a time.

    ``states`` holds all n_steps + 1 states of the dense sweep, ``lam`` =
    dJ/d conj(states[-1]), and J adds ``coef[m] * sum(|states[m][mask]|^2)``.
    mu_m = lambda_m^H E runs back through the sweep's own merged steps
    M_m = K_m E^2: mu_m = mu_{m+1} M_m + coef_m psi_m^H mask E.  Then
    dJ/dc_m = 2 Re tr(mu_{m+1} dK_m/dc E psi_m), with dK_m/dc = U (G o U^H C U) U^H
    from a plain eigh U diag(l) U^H of sum_k p_k A_k + q_k B_k and G the
    divided-difference kernel of exp(-1j dt l).
    """
    split, _, mask = system_operators(sys)
    ops = control_operators(sys)
    half = dynamics._drift_exponential(split, 0.5 * dt)
    _, steps = step_unitaries(split, p, q, dt, slice(None))
    sens = np.empty((2,) + p.shape)
    mu = (lam + coef[-1] * (mask[:, None] * states[-1])).conj().T @ half
    for m in range(p.shape[1] - 1, -1, -1):
        evals, basis = np.linalg.eigh(control_hamiltonian(ops, p, q, m))
        mean = 0.5 * (evals[:, None] + evals[None, :])
        gap = evals[:, None] - evals[None, :]
        kernel = -1j * dt * np.exp(-1j * dt * mean) * np.sinc(dt * gap / (2.0 * np.pi))
        weighted = kernel * (basis.conj().T @ (half @ states[m]) @ (mu @ basis)).T
        for k, pair in enumerate(ops):
            for c, op in enumerate(pair):
                sens[c, k, m] = 2.0 * np.real(np.sum(weighted * (basis.conj().T @ op @ basis)))
        mu = mu @ steps[m] + (coef[m] * (mask[:, None] * states[m])).conj().T @ half
    return sens[0], sens[1]
