import inspect
import threading
from dataclasses import replace

import numpy as np
import pytest

from quditpulse import dynamics
from quditpulse.dynamics import (
    BLOCK,
    MIN_STEPS_PER_NS,
    SWEEP_BYTES,
    PropagationError,
    _gemm,
    _group_size,
    block_length,
    default_steps_per_ns,
    guard_populations,
    propagate,
    propagate_sequence,
    resolutions,
    reverse_sequence,
    step_grid,
    step_unitaries,
    sub_block_length,
    system_operators,
)
from quditpulse.model import (
    drift_hamiltonian,
    embed_isometry,
    embed_target,
    gate,
    transmon_system,
)
from quditpulse.objective import trace_infidelity
from quditpulse.pulse import default_params, eval_controls
from reference import (
    control_hamiltonian,
    control_operators,
    per_step_sensitivities,
    random_pulse,
)


def _stored(n_steps):
    """The decimated stored steps of a grid of n_steps steps."""
    return step_grid(float(n_steps), 1, 3, ((0.0,),), 1).stored


class TestPropagate:
    def test_identity_with_zero_drive_and_drift(self):
        sys = transmon_system(num_qudits=1, d=2, guard=0, omega_rot_ghz=4.914)
        traj = propagate(sys, default_params(sys, 10.0))
        assert np.max(np.abs(traj.states[-1] - embed_isometry(sys))) < 1e-13

    def test_diagonal_drift_phases(self):
        sys = transmon_system(num_qudits=1, d=2, guard=1, omega_rot_ghz=5.0)
        h = drift_hamiltonian(sys)
        assert np.allclose(h, np.diag(np.diag(h)))
        T = 7.0
        traj = propagate(sys, default_params(sys, T))
        expected = embed_isometry(sys) * np.exp(-1j * np.diag(h) * T)[:, None]
        assert np.max(np.abs(traj.states[-1] - expected)) < 1e-12

    def test_column_norms(self):
        sys = transmon_system(num_qudits=2, d=3, guard=2)
        traj = propagate(sys, random_pulse(sys, 8.0, 0.8, 4))
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    def test_final_state_only_hands_on_the_last_block(self):
        # With the guard grid's states stored, and with only the final one,
        # which chains the last block, the hand-off is the last block's
        # read-only per-qudit control factors, from which the reverse sweep
        # rebuilds the steps, and no n x n step.
        sys = transmon_system(num_qudits=2, d=2, guard=2)
        params = random_pulse(sys, 20.0, 0.5, 3)
        size, levels = block_length(sys.dim_total), sys.levels
        shapes = [(2, size, levels)] * 2 + [(2, size, levels, levels)]
        for store_trajectory in (True, False):
            last = propagate(sys, params, store_trajectory=store_trajectory).last
            assert [arr.shape for arr in last] == shapes
            assert not any(arr.flags.writeable for arr in last)

    def test_time_reversal(self):
        sys = transmon_system(num_qudits=1, d=3, guard=2)
        params = random_pulse(sys, 12.0, 0.7, 8)
        split, embed, _ = system_operators(sys)
        grid = step_grid(params.T, 20, params.N_b, params.carriers, sys.dim_essential)
        n_steps, dt = grid.stored[-1], grid.dt
        p, q = eval_controls(params, grid.midpoints)
        forward = propagate_sequence(split, p, q, dt, embed, [n_steps])[0][-1]
        negated_drift = replace(split, drift_vals=-split.drift_vals)
        back = propagate_sequence(
            negated_drift, -p[:, ::-1], -q[:, ::-1], dt, forward, [n_steps]
        )[0][-1]
        assert np.max(np.abs(back - embed)) < 1e-8

    def test_non_finite_controls_raise(self):
        sys = transmon_system(num_qudits=1, d=2, guard=1)
        split, embed, _ = system_operators(sys)
        p = np.array([[np.nan, 0.0]])
        q = np.zeros_like(p)
        with pytest.raises(PropagationError):
            propagate_sequence(split, p, q, 0.5, embed, [2])

    @pytest.mark.parametrize("store", [[], [2, 1], [1, 1], [0, 3], [-1, 2]])
    def test_invalid_store_raises(self, store):
        sys = transmon_system(num_qudits=1, d=2, guard=1)
        split, embed, _ = system_operators(sys)
        p = np.zeros((1, 2))
        with pytest.raises(ValueError, match="store must be strictly increasing"):
            propagate_sequence(split, p, p, 0.5, embed, store)

    def test_steps_per_ns_validation(self):
        sys = transmon_system(num_qudits=1, d=2, guard=1)
        with pytest.raises(ValueError):
            propagate(sys, default_params(sys, 10.0), steps_per_ns=0)

    def test_default_resolution(self):
        for num_qudits in (1, 2):
            sys = transmon_system(num_qudits=num_qudits, d=2)
            assert default_steps_per_ns(sys) == resolutions(sys, 1e-3)[1]

    @pytest.mark.parametrize("threshold", [1e-2, 1e-3, 1e-4])
    def test_search_at_most_claim_on_every_system(self, threshold):
        for num_qudits, d in SYSTEMS + [(1, 12), (2, 5)]:
            search, claim = resolutions(transmon_system(num_qudits, d, guard=2), threshold)
            assert MIN_STEPS_PER_NS <= search <= claim


SYSTEMS = [(1, d) for d in range(2, 9)] + [(2, 2), (2, 3)]


def _eigh_exponential(h, dt):
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * dt * evals)) @ evecs.conj().T


class TestStrangStep:
    @pytest.mark.parametrize("num_qudits, d", SYSTEMS)
    def test_closed_form_control_exponential(self, num_qudits, d):
        sys = transmon_system(num_qudits=num_qudits, d=d, guard=2)
        split, _, _ = system_operators(sys)
        rng = np.random.default_rng(100 * num_qudits + d)
        # zero, negative in-phase only, pure quadrature, both negative, random
        p = np.concatenate([[0.0, -0.2, 0.0, -0.15], rng.uniform(-2.0, 2.0, 8)])
        q = np.concatenate([[0.0, 0.0, 0.3, -0.25], rng.uniform(-2.0, 2.0, 8)])
        p = np.stack([p, np.roll(p, 3)])[:num_qudits]
        q = np.stack([q, np.roll(q, 5)])[:num_qudits]
        dt = 0.05
        # With zero drift the merged step K E^2 is K itself.
        no_drift = replace(split, drift_vals=np.zeros_like(split.drift_vals))
        qudits, steps = step_unitaries(no_drift, p, q, dt, slice(None))
        ops = control_operators(sys)
        a_one, b_one = control_operators(transmon_system(num_qudits=1, d=d, guard=2))[0]
        for m in range(p.shape[1]):
            h_c = control_hamiltonian(ops, p, q, m)
            assert np.max(np.abs(steps[m] - _eigh_exponential(h_c, dt))) <= 1e-13
            for k, (evals, phases, kmat) in enumerate(zip(*qudits)):
                h_k = p[k, m] * a_one + q[k, m] * b_one
                assert np.max(np.abs(kmat[m] - _eigh_exponential(h_k, dt))) <= 1e-13
                evecs = phases[m][:, None] * split.ladder_vecs  # W = R V
                rebuilt = (evecs * evals[m]) @ evecs.conj().T
                assert np.max(np.abs(rebuilt - h_k)) <= 1e-13 * max(1.0, np.max(np.abs(h_k)))

    @pytest.mark.parametrize("num_qudits, d", SYSTEMS)
    def test_integrator_error_at_default_resolution(self, num_qudits, d):
        # Stated tolerance: |infidelity(default steps/ns) - infidelity(640
        # steps/ns)| <= 1e-5, two orders below the 1e-3 error threshold.
        sys = transmon_system(num_qudits=num_qudits, d=d, guard=2)
        target = embed_target(gate("X_d" if num_qudits == 1 else "SWAP_d", d), sys)
        T = 8.0 if num_qudits == 1 else 3.0
        for seed in range(3):
            params = random_pulse(sys, T, 0.3, seed)
            infid = [
                trace_infidelity(
                    propagate(sys, params, n, store_trajectory=False).states[-1], target
                )
                for n in (None, 640)
            ]
            assert abs(infid[0] - infid[1]) <= 1e-5


def _block_length(num_qudits, d):
    return block_length(transmon_system(num_qudits=num_qudits, d=d, guard=2).dim_total)


def _factor_system(num_qudits, d, n_steps, seed):
    sys = transmon_system(num_qudits=num_qudits, d=d, guard=2)
    split, embed, mask = system_operators(sys)
    rng = np.random.default_rng(seed)
    p, q = rng.uniform(-0.3, 0.3, (2, num_qudits, n_steps))
    return sys, split, embed, mask, p, q, 1.0 / default_steps_per_ns(sys), rng


class TestFactorKernels:
    # Stated tolerance of the factor-form kernels against per-step formulas:
    # 1e-13 absolute on the merged steps and 1e-13 relative (max norm) on the
    # adjoint gradient.

    @pytest.mark.parametrize("num_qudits, d", SYSTEMS)
    def test_merged_steps_match_per_step_formula(self, num_qudits, d):
        # M = K E^2, so E M E^-1 is the Strang step E K E (the sweeps carry E^-1 psi).
        sys, split, _, _, p, q, dt, _ = _factor_system(num_qudits, d, 40, d)
        _, steps = step_unitaries(split, p, q, dt, slice(None))
        drift_sq = _eigh_exponential(drift_hamiltonian(sys), dt)
        ops = control_operators(sys)
        for m in range(p.shape[1]):
            kmat = _eigh_exponential(control_hamiltonian(ops, p, q, m), dt)
            assert np.max(np.abs(steps[m] - kmat @ drift_sq)) <= 1e-13

    @staticmethod
    def _adjoint_error(num_qudits, d, n_steps, grid):
        """Max deviation of ``reverse_sequence`` from ``per_step_sensitivities``,
        relative to max |reference|, with every state stored and with the
        sparse ``grid``'s.  About 30% of the grid's steps carry no guard
        term."""
        sys, split, embed, mask, p, q, dt, rng = _factor_system(num_qudits, d, n_steps, 7 + d)
        states, _ = propagate_sequence(split, p, q, dt, embed, np.arange(n_steps + 1))
        lam = rng.standard_normal(embed.shape) + 1j * rng.standard_normal(embed.shape)
        coef = np.zeros(n_steps + 1)
        coef[grid] = rng.uniform(0.0, 0.5, len(grid)) * (rng.uniform(size=len(grid)) < 0.7)
        reference = np.asarray(per_step_sensitivities(sys, p, q, dt, states, lam, coef))
        errors = []
        for store in (np.arange(n_steps + 1), grid):
            stored, last = propagate_sequence(split, p, q, dt, embed, store)
            grad = reverse_sequence(split, p, q, dt, store, stored, lam, coef[store], mask, last)
            errors.append(np.max(np.abs(np.asarray(grad) - reference)))
        return max(errors) / np.max(np.abs(reference))

    @pytest.mark.parametrize("num_qudits, d", SYSTEMS)
    def test_adjoint_matches_per_step_formula(self, num_qudits, d):
        # The step count leaves a short first block and crosses two block
        # edges.
        n_steps = 2 * _block_length(num_qudits, d) + 5
        grid = np.append(np.arange(0, n_steps, 3), n_steps)
        assert self._adjoint_error(num_qudits, d, n_steps, grid) <= 1e-13

    @pytest.mark.parametrize("num_qudits, d", [(1, 2), (2, 3)])
    def test_adjoint_takes_a_chained_last_block_from_the_forward(self, num_qudits, d):
        # The sparse grid's last state before the end is the last block's
        # start, so the forward sweep only chains that block, and still hands
        # its factors on.
        length = _block_length(num_qudits, d)
        n_steps = 2 * length + 5
        grid = np.append(np.arange(0, n_steps - length, 3), [n_steps - length, n_steps])
        _, split, embed, _, p, q, dt, _ = _factor_system(num_qudits, d, n_steps, 7 + d)
        last = propagate_sequence(split, p, q, dt, embed, grid)[1]
        assert [arr.shape[:2] for arr in last] == [(num_qudits, length)] * 3
        assert self._adjoint_error(num_qudits, d, n_steps, grid) <= 1e-13

    @pytest.mark.parametrize("num_qudits, d", [(1, 4), (2, 3)])
    def test_adjoint_matches_per_step_formula_across_sub_blocks(self, num_qudits, d):
        # The reverse sweep's per-step work runs in sub-blocks inside each
        # block; over a short first block and a full one whose sub-block edges
        # each carry a stored state and a guard term.
        sys = transmon_system(num_qudits=num_qudits, d=d, guard=2)
        length = block_length(sys.dim_total)
        sub = sub_block_length(sys.dim_total, sys.dim_essential)
        assert sub < length
        n_steps = length + sub // 2
        edges = [n_steps - length + lo for lo, _ in dynamics._partitions(length, sub)]
        grid = np.unique(np.concatenate([np.arange(0, n_steps, 5), edges, [n_steps]]))
        assert self._adjoint_error(num_qudits, d, n_steps, grid) <= 1e-13

    @pytest.mark.parametrize("num_qudits, d, n_steps", [(1, 5, 4400), (2, 2, 4000)])
    def test_adjoint_matches_per_step_formula_on_long_pulses(self, num_qudits, d, n_steps):
        # The sparse grid is the guard grid of the objective.
        assert self._adjoint_error(num_qudits, d, n_steps, _stored(n_steps)) <= 1e-13

    @pytest.mark.parametrize("num_qudits, d, n_steps", [(1, 5, 4400), (2, 2, 4000)])
    def test_rebuilt_states_match_stored_states(self, num_qudits, d, n_steps):
        # The same sweep with every state stored and with only the guard
        # grid's: the rebuilt rows restart on the grid, so their rounding
        # stays near one step's (4.3e-15 and 1.1e-15 here; rebuilt from the
        # final state alone, 8.6e-14 and 1.8e-13).
        _, split, embed, mask, p, q, dt, rng = _factor_system(num_qudits, d, n_steps, d)
        lam = rng.standard_normal(embed.shape) + 1j * rng.standard_normal(embed.shape)
        grid = _stored(n_steps)
        coef = np.zeros(n_steps + 1)
        coef[grid] = rng.uniform(0.0, 0.5, len(grid))
        grads = []
        for store in (np.arange(n_steps + 1), grid):
            states, last = propagate_sequence(split, p, q, dt, embed, store)
            grads.append(np.asarray(reverse_sequence(split, p, q, dt, store, states, lam,
                                                     coef[store], mask, last)))
        assert np.max(np.abs(grads[1] - grads[0])) <= 2e-14 * np.max(np.abs(grads[0]))

    @pytest.mark.parametrize("num_qudits, d", SYSTEMS + [(2, 5)])
    def test_every_gemm_stays_on_one_blas_thread(self, num_qudits, d, monkeypatch):
        # Both sweeps over a short first block and a full one, with every
        # state stored, with the states between every 4th rebuilt and with
        # only the final state, whose forward chains each block's steps; every
        # product the sweeps make, all through np.matmul, has m * n * k below
        # 65,536, from which OpenBLAS 0.3.31 runs a zgemm on two threads.  Among
        # them are the GEMMs that write into the step buffers and, on two
        # qudits, the K_2 GEMMs into the rows buffer and the step build's
        # broadcast products (L x L) @ (L x n); each function of the sweeps
        # that multiplies calls np.matmul.
        n_steps = _block_length(num_qudits, d) + 37
        _, split, embed, mask, p, q, dt, _ = _factor_system(num_qudits, d, n_steps, d)
        sizes, seen, callers = [], set(), set()
        matmul = np.matmul

        def recording_matmul(a, b, **kwargs):
            sizes.append((a.shape[-2] if a.ndim > 1 else 1) * a.shape[-1] * b.shape[-1])
            callers.add(inspect.currentframe().f_back.f_code.co_name)
            if a.ndim == 4 and a.shape[1] == 1:
                seen.add("broadcast")
            out = kwargs.get("out")
            for name, buffer in vars(dynamics._buffers).items():
                if out is not None and np.may_share_memory(out, buffer):
                    seen.add(name)
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", recording_matmul)
        for stride in (1, 4, n_steps):
            store = np.append(np.arange(0, n_steps, stride), n_steps)
            states, last = propagate_sequence(split, p, q, dt, embed, store)
            reverse_sequence(split, p, q, dt, store, states, embed, np.full(len(store), 0.1),
                             mask, last)
        monkeypatch.undo()
        assert sizes and max(sizes) < 65_536
        assert seen == ({"steps", "rows", "broadcast"} if num_qudits == 2 else {"steps"})
        sweeps = {"_gemm", "propagate_sequence", "_chain_product", "recurrence"}
        assert callers == sweeps | ({"merged_steps", "_traced_pair"} if num_qudits == 2
                                    else {"sensitivities"})

    def test_step_buffers_are_sized_by_use(self):
        # A thread's buffers hold the steps of a block and, on two qudits
        # only, the K_2 rows of one partition of the step build, within the
        # byte budget.
        def buffers(num_qudits, d):
            n_steps = _block_length(num_qudits, d)
            _, split, _, _, p, q, dt, _ = _factor_system(num_qudits, d, n_steps, d)
            step_unitaries(split, p, q, dt, slice(None))
            return {name: arr.shape for name, arr in vars(dynamics._buffers).items()}

        shapes = []
        thread = threading.Thread(target=lambda: shapes.extend(
            [buffers(1, 4), buffers(2, 3)]))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        one, two = shapes
        assert one == {"steps": (block_length(6), 6, 6)}
        assert set(two) == {"steps", "rows"} and two["steps"] == (BLOCK, 25, 25)
        assert 16 * np.prod(two["rows"]) <= SWEEP_BYTES < 16 * BLOCK * 25**2

    @pytest.mark.parametrize("d", [2, 5])
    def test_block_length_moves_only_rounding(self, d, monkeypatch):
        # Blocks of the rule's length against the 128-step blocks they
        # replace, over a short first block and two of the rule's length, with
        # every state stored and with the guard grid's, whose states between
        # the reverse sweep rebuilds.
        n_steps = 2 * _block_length(1, d) + 37
        _, split, embed, mask, p, q, dt, rng = _factor_system(1, d, n_steps, d)
        lam = rng.standard_normal(embed.shape) + 1j * rng.standard_normal(embed.shape)
        runs = []
        for length in (None, BLOCK):
            if length is not None:
                monkeypatch.setattr(dynamics, "block_length", lambda n: length)
            for store in (np.arange(n_steps + 1), _stored(n_steps)):
                states, last = propagate_sequence(split, p, q, dt, embed, store)
                grad = reverse_sequence(split, p, q, dt, store, states, lam,
                                        np.full(len(store), 0.1), mask, last)
                runs.append((states, np.asarray(grad)))
        for (states, grad), (states_128, grad_128) in zip(runs[:2], runs[2:]):
            assert np.max(np.abs(states - states_128)) <= 1e-13 * np.max(np.abs(states_128))
            assert np.max(np.abs(grad - grad_128)) <= 1e-13 * np.max(np.abs(grad_128))

    @pytest.mark.parametrize("num_qudits, d", [(1, 2), (2, 3), (2, 5)])
    def test_chain_product_is_independent_of_row_split(self, num_qudits, d, monkeypatch):
        # The forward's pairwise products of a block's steps split their rows
        # below GEMM_THREAD_BOUND, in two parts at 2q d=5 and in one below;
        # in parts of at most 3 or 7 rows, or in one, the product is the same.
        _, split, _, _, p, q, dt, _ = _factor_system(num_qudits, d, BLOCK + 1, d)
        steps = step_unitaries(split, p, q, dt, slice(None))[1].copy()
        product, n = dynamics._chain_product(steps), steps.shape[1]
        for rows in (3, 7, n):
            monkeypatch.setattr(dynamics, "GEMM_THREAD_BOUND", rows * n * n + 1)
            assert np.array_equal(dynamics._chain_product(steps), product), rows

    @pytest.mark.parametrize("n", [4, 6, 16, 25])
    @pytest.mark.parametrize("stack", [1, 81, BLOCK])
    def test_right_constant_product_is_independent_of_chunk_size(self, n, stack, monkeypatch):
        rng = np.random.default_rng(n + stack)
        rows = rng.standard_normal((stack, n, n)) + 1j * rng.standard_normal((stack, n, n))
        const = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        stacked = rows @ const
        for chunk in (None, 3, 7, 50):
            if chunk is not None:
                monkeypatch.setattr(dynamics, "GEMM_THREAD_BOUND", chunk * n * n + 1)
            assert np.array_equal(_gemm(rows, const), stacked), chunk


SWEEP_SYSTEMS = [(1, 2), (1, 8), (2, 2), (2, 3)]


class TestSweep:
    @pytest.mark.parametrize("store_kind", ["dense", "sparse"])
    @pytest.mark.parametrize("num_qudits, d", SWEEP_SYSTEMS)
    def test_matches_reference_loop(self, num_qudits, d, store_kind):
        # Step counts around the forward product's group size and the block
        # length, one that crosses two block edges, and one past
        # MAX_STORED_STEPS; the reference applies E K_m E step by step with E
        # and K_m from plain eigendecompositions.
        sys = transmon_system(num_qudits=num_qudits, d=d, guard=2)
        split, embed, _ = system_operators(sys)
        ops = control_operators(sys)
        dt = 1.0 / default_steps_per_ns(sys)
        half = _eigh_exponential(drift_hamiltonian(sys), 0.5 * dt)
        group, length = _group_size(sys.dim_total), block_length(sys.dim_total)
        counts = {1, group - 1, group, group + 1, length - 1, length, length + 1,
                  2 * length + 1, 1001} - {0}
        rng = np.random.default_rng(10 * num_qudits + d)
        p, q = rng.uniform(-0.3, 0.3, (2, num_qudits, max(counts)))
        reference = [embed]
        for m in range(max(counts)):
            kmat = _eigh_exponential(control_hamiltonian(ops, p, q, m), dt)
            reference.append(half @ (kmat @ (half @ reference[-1])))
        for n_steps in sorted(counts):
            if store_kind == "dense":
                store = np.arange(n_steps + 1)
            else:
                store = np.sort(rng.choice(n_steps + 1, min(5, n_steps + 1), replace=False))
            states, _ = propagate_sequence(split, p[:, :n_steps], q[:, :n_steps], dt, embed, store)
            expected = np.stack([reference[i] for i in store])
            assert np.max(np.abs(states - expected)) <= 1e-11, n_steps


    @pytest.mark.parametrize("num_qudits, d", SWEEP_SYSTEMS)
    def test_final_state_alone_matches_dense_sweep(self, num_qudits, d):
        # Blocks that store no state before their last step multiply their
        # steps pairwise: below one group, one group plus one step, and over
        # two blocks.
        sys = transmon_system(num_qudits=num_qudits, d=d, guard=2)
        split, embed, _ = system_operators(sys)
        steps_per_ns = default_steps_per_ns(sys)
        group = _group_size(sys.dim_total)
        for n_steps in (max(1, group - 1), group + 1, block_length(sys.dim_total) + group + 1):
            params = random_pulse(sys, n_steps / steps_per_ns, 0.5, n_steps)
            traj = propagate(sys, params, steps_per_ns, store_trajectory=False)
            assert traj.p.shape[1] == n_steps
            dense, _ = propagate_sequence(split, traj.p, traj.q, traj.grid.dt, embed,
                                          np.arange(n_steps + 1))
            assert np.max(np.abs(traj.states[-1] - dense[-1])) <= 1e-14, n_steps


class TestTrajectory:
    def test_guard_population_zero_without_guards(self):
        sys = transmon_system(num_qudits=1, d=3, guard=0)
        traj = propagate(sys, random_pulse(sys, 10.0, 0.5, 2))
        assert np.all(guard_populations(traj) == 0.0)

    def test_initial_guard_population_zero(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        traj = propagate(sys, random_pulse(sys, 10.0, 0.5, 3))
        assert guard_populations(traj)[0] == 0.0

    def test_guard_population_range(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        traj = propagate(sys, random_pulse(sys, 25.0, 1.0, 6))
        g = guard_populations(traj)
        assert np.all(g >= 0.0) and np.all(g <= 1.0)

    def test_guard_population_taken_in_chunks(self):
        # A 2q d=3 trajectory holds more stored states than one chunk; the
        # chunked sums equal the one-shot formula bit for bit.
        sys = transmon_system(num_qudits=2, d=3, guard=2)
        traj = propagate(sys, random_pulse(sys, 40.0, 0.5, 9))
        mask = system_operators(sys)[2]
        assert len(traj.states) > SWEEP_BYTES // 32 // traj.states[0].size
        pop = np.abs(traj.states[:, mask])
        pop *= pop
        assert np.array_equal(traj.guard_pop, pop.sum(axis=-2))

    def test_decimation_includes_endpoints(self):
        idx = _stored(4321)
        assert idx[0] == 0 and idx[-1] == 4321
        assert np.all(np.diff(idx) > 0)
        assert len(idx) <= 1002

    def test_times_match_indices(self):
        sys = transmon_system(num_qudits=1, d=2, guard=1)
        traj = propagate(sys, default_params(sys, 10.0), steps_per_ns=200)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(10.0)
        assert len(traj.times) <= 1002
