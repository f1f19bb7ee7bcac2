import dataclasses

import numpy as np
import pytest

from quditpulse import optimize as optimize_mod
from quditpulse.model import GateSpec, gate, transmon_system
from quditpulse.objective import ObjectiveConfig, forward
from quditpulse.optimize import (
    MAX_LINE_SEARCH,
    OptimizerAbort,
    default_max_iter,
    minimize,
)
from quditpulse.pulse import default_params
from reference import random_pulse


class TestMinimize:
    def test_immediate_convergence_at_optimum(self):
        sys = transmon_system(num_qudits=1, d=2, guard=0, omega_rot_ghz=4.914)
        params = default_params(sys, 10.0)
        target = GateSpec("I", 2, np.eye(2))
        res = minimize(sys, params, target, ObjectiveConfig())
        assert res.converged
        assert res.reason == "converged"
        assert res.iterations == 0
        assert (res.n_forward, res.n_gradient) == (1, 1)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_x2_converges_at_30ns(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = random_pulse(sys, 30.0, 0.01, 0)
        res = minimize(sys, params, gate("X_d", 2), ObjectiveConfig(), max_iter=300)
        assert res.converged
        assert res.reason == "converged"
        assert res.fidelity >= 0.999

    def test_iteration_budget(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = random_pulse(sys, 30.0, 0.1, 1)
        res = minimize(sys, params, gate("H_d", 2), ObjectiveConfig(), max_iter=1)
        assert res.iterations == 1
        assert res.reason == "max_iter"
        assert not res.converged
        assert len(res.history) == 1

    def test_bounds_respected_exactly(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = random_pulse(sys, 25.0, 0.5, 2)
        res = minimize(sys, params, gate("X_d", 2), ObjectiveConfig(), max_iter=60)
        assert np.all(np.abs(res.alpha_final) <= params.alpha_max)
        assert np.all(res.alpha_final[params.boundary_mask()] == 0.0)

    def test_history_monotone_nonincreasing(self):
        sys = transmon_system(num_qudits=1, d=3, guard=2)
        params = random_pulse(sys, 25.0, 0.1, 3)
        res = minimize(sys, params, gate("H_d", 3), ObjectiveConfig(), max_iter=40)
        start = forward(sys, params, gate("H_d", 3), ObjectiveConfig()).total
        hist = np.asarray([start] + [row[1] for row in res.history])
        assert np.all(np.diff(hist) <= 0.0)

    def test_best_not_worse_than_initial(self):
        sys = transmon_system(num_qudits=1, d=3, guard=2)
        params = random_pulse(sys, 20.0, 0.3, 4)
        res = minimize(sys, params, gate("X_d", 3), ObjectiveConfig(), max_iter=25)
        start = forward(sys, params, gate("X_d", 3), ObjectiveConfig()).total
        assert res.history and res.history[-1][1] <= start

    def test_deterministic(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = random_pulse(sys, 25.0, 0.1, 5)
        target = gate("H_d", 2)
        r1 = minimize(sys, params, target, ObjectiveConfig(), max_iter=30)
        r2 = minimize(sys, params, target, ObjectiveConfig(), max_iter=30)
        assert np.array_equal(r1.alpha_final, r2.alpha_final)
        assert r1.history == r2.history

    def test_history_rows(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = random_pulse(sys, 20.0, 0.1, 6)
        rows = minimize(sys, params, gate("X_d", 2), ObjectiveConfig(), max_iter=10).history
        assert rows
        assert all(len(r) == 5 for r in rows)
        assert [r[0] for r in rows] == list(range(1, len(rows) + 1))

    def test_invalid_budget(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = default_params(sys, 20.0)
        with pytest.raises(ValueError):
            minimize(sys, params, gate("X_d", 2), ObjectiveConfig(), max_iter=0)

    def test_non_finite_objective_aborts(self, monkeypatch):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = random_pulse(sys, 20.0, 0.1, 7)
        real_forward = optimize_mod.forward

        def bad_forward(*args, **kwargs):
            return dataclasses.replace(real_forward(*args, **kwargs), total=np.nan)

        monkeypatch.setattr(optimize_mod, "forward", bad_forward)
        with pytest.raises(OptimizerAbort):
            minimize(sys, params, gate("X_d", 2), ObjectiveConfig(), max_iter=5)

    def test_non_finite_gradient_aborts(self, monkeypatch):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = random_pulse(sys, 20.0, 0.1, 7)
        monkeypatch.setattr(
            optimize_mod, "backward", lambda cache: np.full_like(params.alpha, np.nan)
        )
        with pytest.raises(OptimizerAbort):
            minimize(sys, params, gate("X_d", 2), ObjectiveConfig(), max_iter=5)

    def test_accepted_candidate_forward_is_reused(self, monkeypatch):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = random_pulse(sys, 20.0, 0.1, 8)
        forwards, backwards = [], []
        real_forward, real_backward = optimize_mod.forward, optimize_mod.backward

        def counting_forward(*args, **kwargs):
            forwards.append(real_forward(*args, **kwargs))
            return forwards[-1]

        def counting_backward(cache):
            # The gradient runs on the newest forward cache, and the forward
            # before it propagated a different pulse: the accepted candidate
            # is not propagated again.
            assert cache is forwards[-1]
            if len(forwards) > 1:
                assert not np.array_equal(forwards[-2].params.alpha, cache.params.alpha)
            backwards.append(cache)
            return real_backward(cache)

        monkeypatch.setattr(optimize_mod, "forward", counting_forward)
        monkeypatch.setattr(optimize_mod, "backward", counting_backward)
        res = minimize(sys, params, gate("X_d", 2), ObjectiveConfig(), max_iter=8)
        assert res.iterations == 8
        assert res.reason == "max_iter"
        # One gradient at the start point plus one per accepted step.
        assert len(backwards) == res.iterations + 1
        assert (res.n_forward, res.n_gradient) == (len(forwards), len(backwards))
        # Every forward after the start point's is a line-search evaluation.
        assert backwards[0] is forwards[0]
        assert len(forwards) >= 1 + res.iterations
        start = forward(sys, params, gate("X_d", 2), ObjectiveConfig())
        assert backwards[0].total == start.total
        assert [row[1:4] for row in res.history] == [
            (b.total, b.infidelity, b.guard) for b in backwards[1:]
        ]

    def test_failed_first_search_not_repeated(self, monkeypatch):
        # With empty L-BFGS memory the first direction already is -grad, so a
        # failed search must not run again: each candidate is evaluated once,
        # and the search gives up after MAX_LINE_SEARCH of them.
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = random_pulse(sys, 20.0, 0.1, 9)
        real_forward = optimize_mod.forward
        start = real_forward(sys, params, gate("X_d", 2), ObjectiveConfig())
        evaluated = []

        def rejecting_forward(sys_, params_, *args, **kwargs):
            evaluated.append(params_.alpha.tobytes())
            cache = real_forward(sys_, params_, *args, **kwargs)
            if len(evaluated) == 1:
                return cache
            return dataclasses.replace(cache, total=start.total + 1.0)  # never Armijo

        monkeypatch.setattr(optimize_mod, "forward", rejecting_forward)
        res = minimize(sys, params, gate("X_d", 2), ObjectiveConfig(), max_iter=5)
        assert res.iterations == 0
        assert res.reason == "no_descent"
        assert len(evaluated) == 1 + MAX_LINE_SEARCH
        assert len(set(evaluated)) == len(evaluated)
        assert (res.n_forward, res.n_gradient) == (1 + MAX_LINE_SEARCH, 1)
        assert np.array_equal(res.alpha_final, params.alpha)
        assert res.fidelity == 1.0 - start.infidelity

    @pytest.mark.parametrize("reject", [False, True])
    def test_projected_repeat_not_propagated_again(self, monkeypatch, reject):
        # From this seed the first -grad halvings clip to the same box corner.
        # A repeat of the candidate just rejected is rejected without a
        # forward pass; it still counts as a trial, so every decision and
        # result matches a run that propagates every trial step, also when
        # every candidate fails and the search runs out of trials.
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = random_pulse(sys, 40.0, 1.0, 5)
        real_forward = optimize_mod.forward
        start = real_forward(sys, params, gate("H_d", 2), ObjectiveConfig(), 5)

        class EveryTrialPropagated:  # numpy, except that no two candidates compare equal
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def array_equal(a, b):
                return False

        def run(numpy_module):
            evaluated = []

            def recording_forward(sys_, params_, *args, **kwargs):
                evaluated.append(params_.alpha.tobytes())
                cache = real_forward(sys_, params_, *args, **kwargs)
                if reject and len(evaluated) > 1:
                    return dataclasses.replace(cache, total=start.total + 1.0)
                return cache

            monkeypatch.setattr(optimize_mod, "forward", recording_forward)
            monkeypatch.setattr(optimize_mod, "np", numpy_module)
            res = minimize(sys, params, gate("H_d", 2), ObjectiveConfig(), max_iter=10,
                           steps_per_ns=5)
            return res, evaluated

        every, every_evaluated = run(EveryTrialPropagated())
        skipped, evaluated = run(np)
        assert len(set(every_evaluated[:10])) < len(every_evaluated[:10])
        if reject:
            assert every.reason == "no_descent"
            assert every.n_forward == 1 + MAX_LINE_SEARCH
        assert np.array_equal(skipped.alpha_final, every.alpha_final)
        assert skipped.history == every.history
        assert (skipped.reason, skipped.iterations) == (every.reason, every.iterations)
        assert skipped.n_gradient == every.n_gradient
        assert skipped.n_forward == len(evaluated) == len(set(every_evaluated))
        assert skipped.n_forward < every.n_forward == len(every_evaluated)

    def test_relative_decrease_stop(self, monkeypatch):
        # Every step passes Armijo but lowers the objective by only 1e-12, far
        # below FTOL relative: the run stops after one step instead of
        # spending its budget on roundoff-sized progress.
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = random_pulse(sys, 20.0, 0.1, 10)
        real_forward = optimize_mod.forward
        calls = []

        def creeping_forward(*args, **kwargs):
            calls.append(None)
            cache = real_forward(*args, **kwargs)
            return dataclasses.replace(cache, total=1.0 - 1e-12 * len(calls))

        monkeypatch.setattr(optimize_mod, "forward", creeping_forward)
        monkeypatch.setattr(
            optimize_mod, "backward", lambda cache: np.full_like(params.alpha, 1e-8)
        )
        res = minimize(sys, params, gate("X_d", 2), ObjectiveConfig(), max_iter=50)
        assert res.reason == "stalled"
        assert res.iterations == 1
        assert not res.converged
        assert (res.n_forward, res.n_gradient) == (2, 2)
        assert [row[1] for row in res.history] == [1.0 - 2e-12]

    def test_default_budgets(self):
        assert default_max_iter(transmon_system(num_qudits=1, d=2)) == 500
        assert default_max_iter(transmon_system(num_qudits=2, d=2)) == 1000
