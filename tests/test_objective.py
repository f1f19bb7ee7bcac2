import dataclasses
import threading
import tracemalloc
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest

from quditpulse import dynamics
from quditpulse.dynamics import (
    BLOCK,
    MAX_STORED_STEPS,
    PropagationError,
    block_length,
    guard_population_columns,
    propagate,
    propagate_sequence,
    step_grid,
    system_operators,
)
from quditpulse.model import GateSpec, embed_target, gate, transmon_system
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
from quditpulse.pulse import basis_matrix, default_params
from reference import per_step_sensitivities, random_pulse

# Steps per block of both sweeps at 2q d=3.
TWO_QUDIT_BLOCK = block_length(transmon_system(num_qudits=2, d=3, guard=2).dim_total)


def _full_trajectory(cache):
    """All n_steps + 1 states of the cache's pulse, stored by the forward sweep."""
    split, embed, _ = system_operators(cache.sys)
    traj = cache.traj
    n_steps = traj.p.shape[1]
    return propagate_sequence(split, traj.p, traj.q, traj.grid.dt, embed, np.arange(n_steps + 1))[0]


def _per_step_reference_gradient(cache):
    """``per_step_sensitivities`` over the stored states of every step,
    taken to alpha by the chain rule, with the L2 term and the pinned zeros."""
    sys, params, cfg, traj = cache.sys, cache.params, cache.cfg, cache.traj
    n_steps, dt = traj.p.shape[1], traj.grid.dt
    guard_coef = np.zeros(n_steps + 1)
    guard_coef[traj.steps] = cfg.w_guard * traj.grid.weights
    lam = -(cache.overlap / sys.dim_essential**2) * cache.v_emb
    s_a, s_b = per_step_sensitivities(sys, traj.p, traj.q, dt, _full_trajectory(cache), lam,
                                      guard_coef)
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
        assert trace_infidelity(v_emb, v_emb) == 0.0

    def test_global_phase_invariance(self):
        sys = transmon_system(num_qudits=1, d=3, guard=1)
        v_emb = embed_target(gate("T_d", 3), sys)
        rng = np.random.default_rng(0)
        for phase in rng.uniform(0, 2 * np.pi, 100):
            j = trace_infidelity(np.exp(1j * phase) * v_emb, v_emb)
            assert j < 1e-12

    def test_orthogonal_target(self):
        sys = transmon_system(num_qudits=1, d=2, guard=0)
        identity = embed_target(GateSpec("I", 2, np.eye(2)), sys)
        z_states = embed_target(gate("Z_d", 2), sys)
        # Tr(Z) = 0, so overlap with the identity vanishes entirely
        assert trace_infidelity(z_states, identity) == 1.0

    def test_range(self):
        rng = np.random.default_rng(7)
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        v_emb = embed_target(gate("X_d", 2), sys)
        for seed in range(5):
            traj = propagate(sys, random_pulse(sys, 15.0, 1.0, seed))
            j = trace_infidelity(traj.states[-1], v_emb)
            assert 0.0 <= j <= 1.0

    def test_non_orthonormal_columns_raise(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        v_emb = embed_target(gate("X_d", 2), sys)
        for bad in (1.001 * v_emb, np.full_like(v_emb, np.nan)):
            with pytest.raises(PropagationError):
                trace_infidelity(bad, v_emb)

    def test_roundoff_clipped_into_range(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        v_emb = embed_target(gate("X_d", 2), sys)
        # |<V, U>|^2 / h^2 = (1 + 1e-12)^2 > 1: roundoff, not a fault
        assert trace_infidelity((1 + 1e-12) * v_emb, v_emb) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            trace_infidelity(np.zeros((4, 2)), np.zeros((3, 2)))


class TestGuardPenalty:
    def test_no_guards(self):
        sys = transmon_system(num_qudits=1, d=3, guard=0)
        params = random_pulse(sys, 12.0, 0.6, 1)
        assert forward(sys, params, gate("X_d", 3), ObjectiveConfig()).guard == 0.0

    def test_constant_population_average(self, monkeypatch):
        # Each column holds 0.25 on the guard states at every stored time.
        def constant(states, mask):
            return np.full((len(states), states.shape[2]), 0.25)

        monkeypatch.setattr(dynamics, "guard_population_columns", constant)
        sys = transmon_system(num_qudits=1, d=3, guard=2)
        params = random_pulse(sys, 10.0, 0.5, 4)
        assert forward(sys, params, gate("X_d", 3), ObjectiveConfig()).guard == pytest.approx(0.25)

    def test_decimated_close_to_full(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = random_pulse(sys, 60.0, 1.0, 9)
        # 60 ns * 100 steps/ns = 6000 steps: the guard average decimates ~6x
        cache = forward(sys, params, gate("X_d", 2), ObjectiveConfig(), steps_per_ns=100)
        _, _, mask = system_operators(sys)
        states = _full_trajectory(cache)
        times = np.linspace(0.0, params.T, len(states))
        pop = guard_population_columns(states, mask).sum(axis=-1) / sys.dim_essential
        full = np.sum(0.5 * (pop[1:] + pop[:-1]) * np.diff(times)) / params.T
        assert len(cache.traj.states) < len(states)
        assert cache.guard == pytest.approx(full, abs=1e-4)

    @pytest.mark.parametrize("n_steps", [1, 2, 125, 1000, 1001, 4321])
    def test_weights_built_once_per_grid(self, n_steps):
        sys = transmon_system(num_qudits=1, d=3, guard=2)
        params = default_params(sys, n_steps / 20)
        grid = step_grid(params.T, 20, params.N_b, params.carriers, sys.dim_essential)
        idx, coef = grid.stored, grid.weights
        assert idx[0] == 0 and idx[-1] == n_steps
        assert len(coef) == len(idx) and coef.min() > 0
        # The trapezoid weights of a time average sum to one, per column.
        assert coef.sum() == pytest.approx(1.0 / sys.dim_essential, rel=1e-12)
        assert not idx.flags.writeable and not coef.flags.writeable
        cache = forward(sys, params, gate("X_d", 3), ObjectiveConfig(), steps_per_ns=20)
        assert cache.traj.grid is propagate(sys, params, steps_per_ns=20).grid is grid


class TestObjective:
    def test_zero_weights_equals_infidelity(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = random_pulse(sys, 20.0, 0.5, 2)
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
        params = random_pulse(sys, 25.0, 0.8, 3)
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
    def test_two_qudit_adjoint(self):
        # The contract step is small enough that FD noise dominates tighter
        # comparisons here; the adjoint itself is exact (see single-qudit cases).
        sys = transmon_system(num_qudits=2, d=2, guard=2)
        params = random_pulse(sys, 12.0, 0.3, 24)
        target = gate("SWAP2", 2)
        cfg = ObjectiveConfig()
        adj = gradient(sys, params, target, cfg, method="adjoint")
        fd = gradient(sys, params, target, cfg, method="fd")
        free = ~params.boundary_mask()
        rel = np.abs(adj - fd)[free] / np.maximum(np.abs(adj), np.abs(fd))[free]
        assert np.max(rel) < 1e-3

    @pytest.mark.parametrize("num_qudits, d, T, gate_name", [
        (1, 3, 40.0, "H_d"),  # 800 steps: the guard enters at every step
        (1, 3, 60.0, "H_d"),  # 1200 steps: the guard sits on the decimated grid
        (2, 2, 10.0, "CNOT"),
        (2, 3, 6.0, "SWAP_d"),  # per-qudit adjoint kernels on 5 levels each
    ])
    def test_directional_derivative_matches_central_difference(self, num_qudits, d, T,
                                                                gate_name):
        sys = transmon_system(num_qudits=num_qudits, d=d, guard=2)
        params = random_pulse(sys, T, 0.3, 30 + d)
        target = gate(gate_name, d)
        cfg = ObjectiveConfig(w_guard=0.3)
        cache = forward(sys, params, target, cfg)
        n_steps = cache.traj.p.shape[1]
        every_step = np.count_nonzero(cache.traj.grid.weights) == n_steps + 1
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

    @pytest.mark.parametrize("d, n_steps", [
        *(pytest.param(3, n, id=str(n)) for n in (BLOCK + 2, 2 * BLOCK + 27, 8 * BLOCK + 37)),
        *(pytest.param(d, 2 * block_length(transmon_system(num_qudits=1, d=d, guard=2).dim_total)
                       + 37, id=str(d)) for d in (2, 3, 4, 5))])
    def test_batched_reverse_pass_matches_per_step_loop(self, d, n_steps, monkeypatch):
        # Blocks are aligned to the end of the pulse, so each count leaves a
        # short first block and the reverse sweep starts from the forward's
        # full last block.  The counts named by d cross two edges of the
        # rule's blocks; the d=3 counts named by their length cross edges of
        # BLOCK-step blocks.  Every count runs at both block lengths.  With
        # more steps than MAX_STORED_STEPS the guard terms sit on a decimated
        # grid and the adjoint state crosses block edges between guard samples.
        sys = transmon_system(num_qudits=1, d=d, guard=2)
        params = random_pulse(sys, n_steps / 20, 0.8, 27)
        target = gate("H_d", d)
        cfg = ObjectiveConfig(w_guard=0.3, w_l2=1e-4)
        cache = forward(sys, params, target, cfg, steps_per_ns=20)
        assert cache.traj.p.shape[1] == n_steps
        decimated = np.count_nonzero(cache.traj.grid.weights) < n_steps
        assert decimated == (n_steps > MAX_STORED_STEPS)
        reference = _per_step_reference_gradient(cache)
        for length in (block_length(sys.dim_total), BLOCK):
            monkeypatch.setattr(dynamics, "block_length", lambda n: length)
            batched = backward(forward(sys, params, target, cfg, steps_per_ns=20))
            assert np.max(np.abs(batched - reference)) <= 1e-13 * np.max(np.abs(reference))

    @pytest.mark.parametrize("n_steps", [TWO_QUDIT_BLOCK + 2, 160, 2 * TWO_QUDIT_BLOCK + 27])
    def test_two_qudit_reverse_pass_matches_per_step_loop(self, n_steps):
        # The reverse sweep applies one qudit's kernel at a time; the
        # reference uses the kernel of the full two-qudit eigenbasis.
        sys = transmon_system(num_qudits=2, d=3, guard=2)
        params = random_pulse(sys, n_steps / 40, 0.8, 28)
        cfg = ObjectiveConfig(w_guard=0.3, w_l2=1e-4)
        cache = forward(sys, params, gate("SWAP_d", 3), cfg, steps_per_ns=40)
        assert cache.traj.p.shape[1] == n_steps
        reference = _per_step_reference_gradient(cache)
        assert np.max(np.abs(backward(cache) - reference)) <= 1e-13 * np.max(np.abs(reference))

    @pytest.mark.parametrize("num_qudits, d, gate_name", [
        (1, 2, "X_d"), (2, 2, "CNOT"), (2, 3, "SWAP_d")])
    def test_backward_is_pure(self, num_qudits, d, gate_name):
        # The reverse sweep reads the forward's control factors of the last
        # block; two gradients from one cache agree bit for bit and leave it
        # unchanged.
        sys = transmon_system(num_qudits=num_qudits, d=d, guard=2)
        params = random_pulse(sys, 2 * block_length(sys.dim_total) / 20 + 1.0, 0.5, 29)
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
        assert cache.traj.last is not None and first.tobytes() == second.tobytes()
        after = arrays(cache)
        assert len(after) == len(before)
        assert all(np.array_equal(a, b) for a, b in zip(after, before))

    @pytest.mark.parametrize("num_qudits, d, gate_name", [
        (1, 2, "X_d"), (2, 2, "CNOT"), (2, 3, "SWAP_d")])
    def test_backward_ignores_later_sweeps(self, num_qudits, d, gate_name):
        # The sweeps build their steps in buffers that the next block and the
        # next sweep on this thread reuse; the reverse sweep rebuilds the last
        # block's steps there from the control factors that the cache owns,
        # so a forward and backward of another pulse in between leave the
        # gradient unchanged.
        sys = transmon_system(num_qudits=num_qudits, d=d, guard=2)
        T = 2 * block_length(sys.dim_total) / 20 + 1.0
        target, cfg = gate(gate_name, d), ObjectiveConfig(w_guard=0.3)
        first, other = (forward(sys, random_pulse(sys, T, 0.5, seed), target, cfg,
                                steps_per_ns=20) for seed in (31, 32))
        expected = backward(first)
        backward(other)
        assert backward(first).tobytes() == expected.tobytes()

    def test_threads_keep_their_own_step_buffers(self):
        # Three threads, more than the cores of a 2-core machine, sweep
        # different two-qudit pulses at the same time, and each gets the
        # serial result bit for bit.  The interpreter switches threads as
        # often as it can, so that a buffer shared between the threads would
        # be overwritten mid-sweep.
        sys = transmon_system(num_qudits=2, d=2, guard=2)
        T = 2 * block_length(sys.dim_total) / 20 + 1.0
        target, cfg = gate("CNOT", 2), ObjectiveConfig(w_guard=0.3)
        pulses = [random_pulse(sys, T, 0.5, seed) for seed in (33, 34, 35)]

        def evaluate(params):
            cache = forward(sys, params, target, cfg, steps_per_ns=20)
            return cache.total, backward(cache).tobytes()

        serial = [evaluate(params) for params in pulses]
        results = [[] for _ in pulses]

        def run(i):
            results[i].extend(evaluate(pulses[i]) for _ in range(8))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(pulses))]
        interval = getswitchinterval()
        setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(len(runs) == 8 for runs in results)
        assert all(run == serial[i] for i, runs in enumerate(results) for run in runs)

    def test_pinned_coordinates_zero(self):
        sys = transmon_system(num_qudits=1, d=3, guard=2)
        params = random_pulse(sys, 25.0, 0.5, 5)
        g = gradient(sys, params, gate("X_d", 3), ObjectiveConfig())
        assert np.all(g[params.boundary_mask()] == 0.0)

    def test_l2_term_analytic(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = random_pulse(sys, 20.0, 0.5, 6)
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
        params = random_pulse(sys, 25.0, 0.4, 8)
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


class TestMemory:
    def test_gradient_working_set(self):
        # One gradient of the eval_matrix benchmark's 2q d=3 SWAP_d pulse at
        # the claim resolution (150 ns, 1,950 steps), in a fresh thread, so
        # that its step buffers count.  The guard-grid states take 3.4 MB.
        # Handing the reverse sweep a copy of the last block's steps, building
        # the K_2 rows a block at a time and the reverse per-step work a whole
        # block at a time peaked at 10.8 MB.
        sys = transmon_system(num_qudits=2, d=3, guard=2)
        params = random_pulse(sys, 150.0, 0.3, 16)
        target, cfg = gate("SWAP_d", 3), ObjectiveConfig()
        backward(forward(sys, params, target, cfg))  # fills the step grid's caches
        peaks = []

        def measure():
            tracemalloc.start()
            try:
                backward(forward(sys, params, target, cfg))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        thread = threading.Thread(target=measure)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and peaks and peaks[0] <= 8e6

    def test_gradient_keeps_no_trajectory(self):
        # The eval_matrix benchmark's largest system: 2q d=3, T = 150 ns, at 40
        # steps/ns 6,000 steps.  Storing every state took 21.6 MB and one
        # gradient peaked at 28 MB; the guard grid holds 1,001 states (3.6 MB).
        # The first call fills the step grid's caches, the second is measured.
        sys = transmon_system(num_qudits=2, d=3, guard=2)
        params = random_pulse(sys, 150.0, 0.3, 16)
        target, cfg = gate("SWAP_d", 3), ObjectiveConfig()
        backward(forward(sys, params, target, cfg, 40))
        tracemalloc.start()
        try:
            backward(forward(sys, params, target, cfg, 40))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14e6

        cache = forward(sys, params, target, cfg, 40)
        n_steps = cache.traj.p.shape[1]

        def leading_axes(value):
            if isinstance(value, np.ndarray):
                yield value.shape[0] if value.ndim else None
            elif isinstance(value, (tuple, list)):
                for item in value:
                    yield from leading_axes(item)
            elif dataclasses.is_dataclass(value):
                for f in dataclasses.fields(value):
                    yield from leading_axes(getattr(value, f.name))

        assert n_steps == 6000
        assert n_steps + 1 not in set(leading_axes(cache))
