import dataclasses
import importlib

import numpy as np
import pytest

from quditpulse.dynamics import (
    BLOCK,
    MAX_STORED_STEPS,
    PropagationError,
    guard_population_columns,
    propagate,
    system_operators,
)
from quditpulse.model import (
    GateSpec,
    control_operators,
    drift_hamiltonian,
    embed_target,
    gate,
    transmon_system,
)
from quditpulse.objective import (
    ObjectiveConfig,
    backward,
    forward,
    gradient,
    objective,
    objective_parts,
    trace_infidelity,
    value_and_gradient,
)
from quditpulse.pulse import basis_matrix, default_params, random_guess

# The package rebinds the name ``objective`` to the function.
objective_mod = importlib.import_module("quditpulse.objective")


def _random_pulse(sys, T, scale, seed):
    params = default_params(sys, T)
    return params.with_alpha(random_guess(params, scale, seed))


def _per_step_reference_gradient(cache):
    """A step-by-step reverse loop through the Strang steps S = E K E, with
    E and K built from plain eigendecompositions of H0 and p A + q B."""
    sys, params, cfg, dt = cache.sys, cache.params, cache.cfg, cache.dt
    _, _, mask = system_operators(sys)
    ops = control_operators(sys)
    drift_vals, drift_vecs = np.linalg.eigh(drift_hamiltonian(sys))
    half = (drift_vecs * np.exp(-0.5j * dt * drift_vals)) @ drift_vecs.conj().T
    n_steps = cache.p.shape[1]
    guard_coef = cfg.w_guard * cache.guard_coef
    lam = -(cache.overlap / sys.dim_essential**2) * cache.v_emb
    lam = lam + guard_coef[n_steps] * (mask[:, None] * cache.states[n_steps])
    s_a = np.empty((len(ops), n_steps))
    s_b = np.empty((len(ops), n_steps))
    for m in range(n_steps - 1, -1, -1):
        h_c = sum(cache.p[k, m] * a_op + cache.q[k, m] * b_op for k, (a_op, b_op) in enumerate(ops))
        evals, basis_q = np.linalg.eigh(h_c)
        lam_t = basis_q.conj().T @ (half.conj().T @ lam)
        psi_t = basis_q.conj().T @ (half @ cache.states[m])
        mean = 0.5 * (evals[:, None] + evals[None, :])
        gap = evals[:, None] - evals[None, :]
        kernel = -1j * dt * np.exp(-1j * dt * mean) * np.sinc(dt * gap / (2.0 * np.pi))
        kernel_p = kernel * (psi_t @ lam_t.conj().T).T
        for k, (a_op, b_op) in enumerate(ops):
            s_a[k, m] = 2.0 * np.real(np.sum(kernel_p * (basis_q.conj().T @ a_op @ basis_q)))
            s_b[k, m] = 2.0 * np.real(np.sum(kernel_p * (basis_q.conj().T @ b_op @ basis_q)))
        lam = half.conj().T @ (basis_q @ (np.exp(1j * dt * evals)[:, None] * lam_t))
        lam = lam + guard_coef[m] * (mask[:, None] * cache.states[m])
    midpoints = (np.arange(n_steps) + 0.5) * dt
    basis_mid = basis_matrix(params.N_b, params.T, midpoints)
    grad = np.empty((params.num_controls, params.num_carriers, params.N_b, 2))
    for k in range(params.num_controls):
        phases = np.outer(midpoints, np.asarray(params.carriers[k]))
        cosw, sinw = np.cos(phases), np.sin(phases)
        grad[k, :, :, 0] = (cosw * s_a[k][:, None] + sinw * s_b[k][:, None]).T @ basis_mid
        grad[k, :, :, 1] = (cosw * s_b[k][:, None] - sinw * s_a[k][:, None]).T @ basis_mid
    grad = grad.reshape(-1) + 2.0 * cfg.w_l2 * params.alpha
    grad[params.boundary_mask()] = 0.0
    return grad


class TestTraceInfidelity:
    def test_perfect_gate(self):
        sys = transmon_system(num_qudits=1, d=3, guard=2)
        v_emb = embed_target(gate("H_d", 3), sys)
        assert trace_infidelity(v_emb, v_emb, 3) == 0.0

    def test_global_phase_invariance(self):
        sys = transmon_system(num_qudits=1, d=3, guard=1)
        v_emb = embed_target(gate("T_d", 3), sys)
        rng = np.random.default_rng(0)
        for phase in rng.uniform(0, 2 * np.pi, 100):
            j = trace_infidelity(np.exp(1j * phase) * v_emb, v_emb, 3)
            assert j < 1e-12

    def test_orthogonal_target(self):
        sys = transmon_system(num_qudits=1, d=2, guard=0)
        identity = embed_target(GateSpec("I", 2, np.eye(2)), sys)
        z_states = embed_target(gate("Z_d", 2), sys)
        # Tr(Z) = 0, so overlap with the identity vanishes entirely
        assert trace_infidelity(z_states, identity, 2) == 1.0

    def test_range(self):
        rng = np.random.default_rng(7)
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        v_emb = embed_target(gate("X_d", 2), sys)
        for seed in range(5):
            traj = propagate(sys, _random_pulse(sys, 15.0, 1.0, seed))
            j = trace_infidelity(traj.states[-1], v_emb, 2)
            assert 0.0 <= j <= 1.0

    def test_non_orthonormal_columns_raise(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        v_emb = embed_target(gate("X_d", 2), sys)
        for bad in (1.001 * v_emb, np.full_like(v_emb, np.nan)):
            with pytest.raises(PropagationError):
                trace_infidelity(bad, v_emb, 2)

    def test_roundoff_clipped_into_range(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        v_emb = embed_target(gate("X_d", 2), sys)
        # |<V, U>|^2 / h^2 = (1 + 1e-12)^2 > 1: roundoff, not a fault
        assert trace_infidelity((1 + 1e-12) * v_emb, v_emb, 2) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            trace_infidelity(np.zeros((4, 2)), np.zeros((3, 2)), 2)


class TestGuardPenalty:
    def test_no_guards(self):
        sys = transmon_system(num_qudits=1, d=3, guard=0)
        params = _random_pulse(sys, 12.0, 0.6, 1)
        assert forward(sys, params, gate("X_d", 3), ObjectiveConfig()).guard == 0.0

    def test_constant_population_average(self, monkeypatch):
        # Each column holds 0.25 on the guard states at every stored time.
        def constant(states, mask, steps):
            return np.full((len(steps), states.shape[2]), 0.25)

        monkeypatch.setattr(objective_mod, "guard_population_columns", constant)
        sys = transmon_system(num_qudits=1, d=3, guard=2)
        params = _random_pulse(sys, 10.0, 0.5, 4)
        assert forward(sys, params, gate("X_d", 3), ObjectiveConfig()).guard == pytest.approx(0.25)

    def test_decimated_close_to_full(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = _random_pulse(sys, 60.0, 1.0, 9)
        # 60 ns * 100 steps/ns = 6000 steps: the guard average decimates ~6x
        cache = forward(sys, params, gate("X_d", 2), ObjectiveConfig(), steps_per_ns=100)
        _, _, mask = system_operators(sys)
        times = np.linspace(0.0, params.T, len(cache.states))
        pop = guard_population_columns(cache.states, mask).sum(axis=-1) / sys.dim_essential
        full = np.sum(0.5 * (pop[1:] + pop[:-1]) * np.diff(times)) / params.T
        assert np.count_nonzero(cache.guard_coef) < len(cache.states)
        assert cache.guard == pytest.approx(full, abs=1e-4)

    @pytest.mark.parametrize("n_steps", [1, 2, 125, 1000, 1001, 4321])
    def test_weights_built_once_per_grid(self, n_steps):
        dt, n_cols = 0.05, 3
        idx, coef = objective_mod._guard_weights(n_steps, dt, n_cols)
        assert idx[0] == 0 and idx[-1] == n_steps
        assert np.count_nonzero(coef) == len(idx) and coef[idx].min() > 0
        # The trapezoid weights of a time average sum to one, per column.
        assert coef.sum() == pytest.approx(1.0 / n_cols, rel=1e-12)
        assert not idx.flags.writeable and not coef.flags.writeable
        assert objective_mod._guard_weights(n_steps, dt, n_cols)[1] is coef


class TestObjective:
    def test_zero_weights_equals_infidelity(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = _random_pulse(sys, 20.0, 0.5, 2)
        target = gate("X_d", 2)
        cfg = ObjectiveConfig(w_guard=0.0, w_l2=0.0)
        total, infid, _ = objective_parts(sys, params, target, cfg)
        assert total == infid

    def test_identity_is_free(self):
        sys = transmon_system(num_qudits=1, d=2, guard=0, omega_rot_ghz=4.914)
        params = default_params(sys, 10.0)
        target = GateSpec("I", 2, np.eye(2))
        assert objective(sys, params, target, ObjectiveConfig()) < 1e-12

    def test_penalties_only_add(self):
        sys = transmon_system(num_qudits=1, d=3, guard=2)
        params = _random_pulse(sys, 25.0, 0.8, 3)
        target = gate("H_d", 3)
        loose = ObjectiveConfig(w_guard=0.0, w_l2=0.0)
        tight = ObjectiveConfig(w_guard=0.3, w_l2=1e-3)
        assert objective(sys, params, target, tight) >= objective(
            sys, params, target, loose
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ObjectiveConfig(w_guard=-0.1)
        with pytest.raises(ValueError):
            ObjectiveConfig(error_threshold=0.0)


class TestGradient:
    @pytest.mark.parametrize("d,seed", [(2, 21), (3, 22), (4, 23)])
    def test_adjoint_matches_finite_differences(self, d, seed):
        sys = transmon_system(num_qudits=1, d=d, guard=2)
        params = _random_pulse(sys, 30.0, 0.3, seed)
        target = gate("H_d", d)
        cfg = ObjectiveConfig()
        adj = gradient(sys, params, target, cfg, method="adjoint")
        fd = gradient(sys, params, target, cfg, method="fd")
        free = ~params.boundary_mask()
        compare = free & (np.abs(adj) > 1e-10 * np.abs(adj).max())
        rel = np.abs(adj - fd)[compare] / np.maximum(
            np.abs(adj), np.abs(fd)
        )[compare]
        assert np.max(rel) < 1e-5

    def test_two_qudit_adjoint(self):
        # The contract step is small enough that FD noise dominates tighter
        # comparisons here; the adjoint itself is exact (see single-qudit cases).
        sys = transmon_system(num_qudits=2, d=2, guard=2)
        params = _random_pulse(sys, 12.0, 0.3, 24)
        target = gate("SWAP2", 2)
        cfg = ObjectiveConfig()
        adj = gradient(sys, params, target, cfg, method="adjoint")
        fd = gradient(sys, params, target, cfg, method="fd")
        free = ~params.boundary_mask()
        rel = np.abs(adj - fd)[free] / np.maximum(np.abs(adj), np.abs(fd))[free]
        assert np.max(rel) < 1e-3

    def test_two_qudit_d3_directional_derivative(self):
        sys = transmon_system(num_qudits=2, d=3, guard=2)
        params = _random_pulse(sys, 6.0, 0.3, 25)
        target = gate("SWAP_d", 3)
        cfg = ObjectiveConfig()
        rng = np.random.default_rng(26)
        direction = rng.standard_normal(params.alpha.size)
        direction[params.boundary_mask()] = 0.0
        direction /= np.linalg.norm(direction)
        step = 1e-4 * params.alpha_max
        plus = objective(sys, params.with_alpha(params.alpha + step * direction), target, cfg)
        minus = objective(sys, params.with_alpha(params.alpha - step * direction), target, cfg)
        central = (plus - minus) / (2.0 * step)
        adjoint = gradient(sys, params, target, cfg) @ direction
        assert abs(adjoint - central) <= 1e-5 * abs(central)

    @pytest.mark.parametrize("num_qudits, d, T, gate_name", [
        (1, 3, 40.0, "H_d"),  # 800 steps: the guard enters at every step
        (1, 3, 60.0, "H_d"),  # 1200 steps: the guard sits on the decimated grid
        (2, 2, 10.0, "CNOT"),
        (2, 3, 6.0, "SWAP_d"),  # per-qudit adjoint kernels on 5 levels each
    ])
    def test_directional_derivative_matches_central_difference(self, num_qudits, d, T,
                                                                gate_name):
        sys = transmon_system(num_qudits=num_qudits, d=d, guard=2)
        params = _random_pulse(sys, T, 0.3, 30 + d)
        target = gate(gate_name, d)
        cfg = ObjectiveConfig(w_guard=0.3)
        cache = forward(sys, params, target, cfg)
        n_steps = cache.p.shape[1]
        every_step = np.count_nonzero(cache.guard_coef) == n_steps + 1
        assert every_step == (n_steps <= MAX_STORED_STEPS)
        rng = np.random.default_rng(31)
        direction = rng.standard_normal(params.alpha.size)
        direction[params.boundary_mask()] = 0.0
        direction /= np.linalg.norm(direction)
        step = 1e-4 * params.alpha_max
        plus = objective(sys, params.with_alpha(params.alpha + step * direction), target, cfg)
        minus = objective(sys, params.with_alpha(params.alpha - step * direction), target, cfg)
        central = (plus - minus) / (2.0 * step)
        adjoint = backward(cache) @ direction
        assert abs(adjoint - central) <= 1e-6 * abs(central)

    @pytest.mark.parametrize("n_steps", [BLOCK + 2, 2 * BLOCK + 27, 8 * BLOCK + 37])
    def test_batched_reverse_pass_matches_per_step_loop(self, n_steps):
        # Blocks are aligned to the end of the pulse, so each count leaves a
        # short first block and the reverse sweep starts from the forward's
        # full last block.  With more steps than MAX_STORED_STEPS the guard
        # terms sit on a decimated grid and the adjoint state crosses block
        # edges between guard samples.
        sys = transmon_system(num_qudits=1, d=3, guard=2)
        params = _random_pulse(sys, n_steps / 20, 0.8, 27)
        target = gate("H_d", 3)
        cfg = ObjectiveConfig(w_guard=0.3, w_l2=1e-4)
        cache = forward(sys, params, target, cfg, steps_per_ns=20)
        assert cache.p.shape[1] == n_steps
        decimated = np.count_nonzero(cache.guard_coef) < n_steps
        assert decimated == (n_steps > MAX_STORED_STEPS)
        batched = backward(cache)
        reference = _per_step_reference_gradient(cache)
        assert np.max(np.abs(batched - reference)) <= 1e-13 * np.max(np.abs(reference))

    @pytest.mark.parametrize("n_steps", [BLOCK + 2, 160, 2 * BLOCK + 27])
    def test_two_qudit_reverse_pass_matches_per_step_loop(self, n_steps):
        # The reverse sweep applies one qudit's kernel at a time; the
        # reference uses the kernel of the full two-qudit eigenbasis.
        sys = transmon_system(num_qudits=2, d=3, guard=2)
        params = _random_pulse(sys, n_steps / 40, 0.8, 28)
        cfg = ObjectiveConfig(w_guard=0.3, w_l2=1e-4)
        cache = forward(sys, params, gate("SWAP_d", 3), cfg, steps_per_ns=40)
        assert cache.p.shape[1] == n_steps
        reference = _per_step_reference_gradient(cache)
        assert np.max(np.abs(backward(cache) - reference)) <= 1e-12 * np.max(np.abs(reference))

    @pytest.mark.parametrize("num_qudits, d, gate_name", [
        (1, 2, "X_d"), (2, 2, "CNOT"), (2, 3, "SWAP_d")])
    def test_backward_is_pure(self, num_qudits, d, gate_name):
        # The reverse sweep reads the forward's last block of steps; two
        # gradients from one cache agree bit for bit and leave it unchanged.
        sys = transmon_system(num_qudits=num_qudits, d=d, guard=2)
        params = _random_pulse(sys, 2 * BLOCK / 20 + 1.0, 0.5, 29)
        cache = forward(sys, params, gate(gate_name, d), ObjectiveConfig(w_guard=0.3),
                        steps_per_ns=20)

        def arrays(value):
            if isinstance(value, np.ndarray):
                return [value]
            if dataclasses.is_dataclass(value):
                value = [getattr(value, f.name) for f in dataclasses.fields(value)]
            if isinstance(value, (list, tuple)):
                return [a for v in value for a in arrays(v)]
            return []

        before = [a.copy() for a in arrays(cache)]
        first, second = backward(cache), backward(cache)
        assert cache.last is not None and first.tobytes() == second.tobytes()
        after = arrays(cache)
        assert len(after) == len(before)
        assert all(np.array_equal(a, b) for a, b in zip(after, before))

    def test_pinned_coordinates_zero(self):
        sys = transmon_system(num_qudits=1, d=3, guard=2)
        params = _random_pulse(sys, 25.0, 0.5, 5)
        g = gradient(sys, params, gate("X_d", 3), ObjectiveConfig())
        assert np.all(g[params.boundary_mask()] == 0.0)

    def test_l2_term_analytic(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = _random_pulse(sys, 20.0, 0.5, 6)
        target = gate("X_d", 2)
        w = 1e-3
        g0 = gradient(sys, params, target, ObjectiveConfig(w_l2=0.0))
        g1 = gradient(sys, params, target, ObjectiveConfig(w_l2=w))
        free = ~params.boundary_mask()
        assert np.allclose((g1 - g0)[free], 2 * w * params.alpha[free], atol=1e-14)

    def test_stationary_at_trivial_optimum(self):
        sys = transmon_system(num_qudits=1, d=2, guard=0, omega_rot_ghz=4.914)
        params = default_params(sys, 10.0)
        target = GateSpec("I", 2, np.eye(2))
        g = gradient(sys, params, target, ObjectiveConfig(w_guard=0.0))
        assert np.max(np.abs(g)) < 1e-10

    def test_value_and_gradient_consistent_with_objective(self):
        sys = transmon_system(num_qudits=1, d=3, guard=2)
        params = _random_pulse(sys, 25.0, 0.4, 8)
        target = gate("H_d", 3)
        cfg = ObjectiveConfig(w_guard=0.2, w_l2=1e-4)
        total, infid, guard, _ = value_and_gradient(sys, params, target, cfg)
        total2, infid2, guard2 = objective_parts(sys, params, target, cfg)
        assert total == pytest.approx(total2, rel=1e-14)
        assert infid == pytest.approx(infid2, rel=1e-13)
        assert guard == pytest.approx(guard2, rel=1e-12)

    def test_unknown_method(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = default_params(sys, 20.0)
        with pytest.raises(ValueError):
            gradient(sys, params, gate("X_d", 2), ObjectiveConfig(), method="magic")
