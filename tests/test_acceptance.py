"""Acceptance suite: one test per criterion, each at its stated tolerance.

The slowest pieces (the fixed-duration optimization of criterion 5 and the
ten-start duration search of criterion 7) run well inside their budgets on
a laptop-class machine.
"""

import numpy as np
import pytest

from quditpulse.analysis import FitResult, evaluate_fit, fit
from quditpulse.dynamics import (
    guard_populations,
    propagate,
    propagate_sequence,
    resolutions,
    system_operators,
)
from quditpulse.ipr import (
    IPRConfig,
    ipr_run,
    multi_run,
    standard_optimizer,
    threshold_mock_optimizer,
)
from quditpulse.model import embed_target, gate, transmon_system
from quditpulse.objective import ObjectiveConfig, gradient, trace_infidelity
from quditpulse.optimize import minimize
from quditpulse.pulse import default_params, eval_controls, random_guess, refit

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def x2_converged():
    """Shared X gate optimization at 50 ns with two guard levels."""
    sys = transmon_system(num_qudits=1, d=2, guard=2)
    params0 = default_params(sys, 50.0)
    params0 = params0.with_alpha(random_guess(params0, 0.1, 2))
    result = minimize(sys, params0, gate("X_d", 2), ObjectiveConfig(), max_iter=500)
    return sys, params0.with_alpha(result.alpha_final), result


def test_criterion_01_gate_library_exactness():
    s2 = 1 / np.sqrt(2)
    exact = {
        "X_d": np.array([[0, 1], [1, 0]], dtype=complex),
        "Z_d": np.array([[1, 0], [0, -1]], dtype=complex),
        "H_d": np.array([[s2, s2], [s2, -s2]], dtype=complex),
        "T_d": np.diag([1.0, np.exp(1j * np.pi / 4)]),
    }
    for name, want in exact.items():
        assert np.max(np.abs(gate(name, 2).matrix - want)) <= 1e-15
    for d in range(2, 9):
        for name in ("X_d", "Xs_d", "H_d", "T_d", "Z_d"):
            m = gate(name, d).matrix
            assert np.max(np.abs(m.conj().T @ m - np.eye(d))) <= 1e-12
        sw = gate("SWAP_d", d).matrix
        assert np.max(np.abs(sw.conj().T @ sw - np.eye(d * d))) <= 1e-12
        assert np.allclose(sw @ sw, np.eye(d * d))
        xs = gate("Xs_d", d).matrix
        assert np.allclose(xs @ xs, np.eye(d))
        assert np.allclose(np.linalg.matrix_power(gate("X_d", d).matrix, d), np.eye(d))


def test_criterion_02_carrier_worked_example():
    sys = transmon_system(num_qudits=2, d=3, guard=2)
    from quditpulse.pulse import carrier_frequencies

    lab, rot = carrier_frequencies(sys)
    flat = np.array([f for ctrl in lab for f in ctrl]) / TWO_PI
    assert np.allclose(flat, [4.914, 4.584, 5.114, 4.784], atol=1e-12)
    assert sys.omega_rot / TWO_PI == pytest.approx(4.849, abs=1e-12)
    for ctrl in rot:
        assert np.allclose(
            np.array(ctrl) / TWO_PI, [0.065, -0.265, 0.265, -0.065], atol=1e-12
        )


def test_criterion_03_propagator_unitarity_and_order():
    for num_qudits, d, guard, seed in [(1, 4, 2, 0), (2, 3, 2, 1), (2, 4, 2, 2)]:
        sys = transmon_system(num_qudits=num_qudits, d=d, guard=guard)
        assert sys.dim_total <= 36
        params = default_params(sys, 5.0)
        params = params.with_alpha(random_guess(params, 0.8, seed))
        split, _, _ = system_operators(sys)
        traj = propagate(sys, params, store_trajectory=False)
        eye = np.eye(sys.dim_total, dtype=complex)
        u = propagate_sequence(split, traj.p, traj.q, traj.grid.dt, eye, [traj.p.shape[1]])[0][-1]
        assert np.max(np.abs(u.conj().T @ u - np.eye(sys.dim_total))) <= 1e-10

    sys = transmon_system(num_qudits=1, d=3, guard=2)
    params = default_params(sys, 20.0)
    params = params.with_alpha(random_guess(params, 0.8, 1))
    finals = [
        propagate(sys, params, steps_per_ns=n, store_trajectory=False).states[-1]
        for n in (4, 8, 16)
    ]
    order = np.log2(
        np.linalg.norm(finals[0] - finals[1]) / np.linalg.norm(finals[1] - finals[2])
    )
    assert order >= 1.9


def test_criterion_04_gradient_contract():
    cfg = ObjectiveConfig()
    for d, seed in [(2, 21), (3, 22), (4, 23)]:
        sys = transmon_system(num_qudits=1, d=d, guard=2)
        params = default_params(sys, 30.0)
        params = params.with_alpha(random_guess(params, 0.3, seed))
        target = gate("H_d", d)
        adj = gradient(sys, params, target, cfg, method="adjoint")
        fd = gradient(sys, params, target, cfg, method="fd")
        compare = (~params.boundary_mask()) & (
            np.abs(adj) > 1e-10 * np.abs(adj).max()
        )
        rel = np.abs(adj - fd)[compare] / np.maximum(np.abs(adj), np.abs(fd))[compare]
        assert np.max(rel) < 1e-5, f"d={d}: max relative error {np.max(rel):.3e}"


def test_criterion_05_end_to_end_x2_optimization(x2_converged):
    _, _, result = x2_converged
    assert result.converged
    assert result.iterations <= 500
    assert result.fidelity >= 0.999


def test_criterion_06_ipr_state_machine():
    sys = transmon_system(num_qudits=1, d=4, guard=2)
    target = gate("H_d", 4)
    cfg = IPRConfig(T_start=70.0, step=8.0, seed=7)
    res = ipr_run(sys, target, cfg, threshold_mock_optimizer(76.0))
    assert [(r.T, r.success) for r in res.records] == [
        (70.0, False), (78.0, True), (70.0, False), (74.0, False),
        (76.0, True), (74.0, False), (75.0, False),
    ]
    assert res.T_best == 76.0
    assert res.restarts_used == 0

    rng = np.random.default_rng(2718)
    for _ in range(200):
        t_star = float(rng.uniform(5, 150))
        cfg = IPRConfig(
            T_start=float(rng.uniform(4, 200)),
            step=float(rng.integers(1, 33)),
            seed=int(rng.integers(1 << 30)),
        )
        res = ipr_run(sys, target, cfg, threshold_mock_optimizer(t_star))
        assert res.succeeded
        assert t_star <= res.T_best < t_star + 2.0


def test_criterion_07_ipr_end_to_end_h2():
    sys = transmon_system(num_qudits=1, d=2, guard=2)
    target = gate("H_d", 2)
    base = IPRConfig(T_start=50.0, guess_scale=0.01, seed=1234)
    summary = multi_run(
        sys, target, base, 10,
        optimizer=standard_optimizer(ObjectiveConfig(), max_iter=500),
    )
    successes = [r for r in summary.results if r.succeeded]
    assert len(successes) >= 2
    assert summary.t_std is not None and summary.t_std <= 10.0
    assert summary.fidelity_best >= 0.999


def test_criterion_08_regression():
    pts = [(d, 2.0 * d * d + 3.0 * d + 5.0) for d in range(2, 9)]
    res = fit(pts, "quadratic")
    assert abs(res.a - 2.0) <= 1e-8
    assert abs(res.b - 3.0) <= 1e-8
    assert abs(res.c - 5.0) <= 1e-8

    rng = np.random.default_rng(4)
    noisy = [
        (d, 1.2 * d * d + 8.0 * d + 2.0 + rng.normal(0, 3.0)) for d in range(2, 9)
    ]
    assert fit(noisy, "quadratic").r_squared >= fit(noisy, "linear").r_squared

    published = FitResult("quadratic", 1.48, 12.02, 4.93, (0.12, 1.18, 2.67), 1.0)
    value = evaluate_fit(published, 8)
    assert value == pytest.approx(195.81, abs=1e-9)
    assert abs(value - 195.0) < 1.0


def test_criterion_09_refit():
    sys = transmon_system(num_qudits=1, d=3, guard=2)

    def deviation(a, b, n_points):
        t = np.linspace(0, a.T, n_points)
        return np.max(np.abs(np.array(eval_controls(a, t)) - np.array(eval_controls(b, t))))

    params = default_params(sys, 80.0)
    params = params.with_alpha(random_guess(params, 0.7, 5))
    assert deviation(params, refit(params, 80.0), 400) < 1e-8 * params.alpha_max

    # extend/truncate round trip on nested spline grids (matching spacing)
    T, T_ext = 80.0, 800.0 / 9.0
    shaped = random_guess(params, 0.7, 17).reshape(1, params.num_carriers, 10, 2)
    shaped[:, :, -2, :] = 0.0
    start = params.with_alpha(shaped.reshape(-1))
    assert deviation(start, refit(refit(start, T_ext), T), 500) < 1e-6 * params.alpha_max

    rng = np.random.default_rng(123)
    for _ in range(1000):
        t_old = rng.uniform(6, 120)
        p = default_params(sys, t_old)
        p = p.with_alpha(random_guess(p, 1.0, rng))
        out = refit(p, rng.uniform(6, 120))
        assert np.all(np.abs(out.alpha) <= out.alpha_max)
        assert np.all(out.alpha[out.boundary_mask()] == 0.0)


def test_criterion_10_guard_suppression(x2_converged):
    sys, converged_params, result = x2_converged
    assert result.fidelity >= 0.999
    traj = propagate(sys, converged_params)
    assert np.max(guard_populations(traj)) <= 5e-3


def test_x2_converged_within_the_resolution_budgets(x2_converged):
    # The claim and search budgets of dynamics.resolutions: the infidelity
    # at each resolution differs from its 640 steps/ns value by at most
    # threshold/100 and threshold/20.
    sys, params, _ = x2_converged
    target = embed_target(gate("X_d", 2), sys)
    search, claim = resolutions(sys, 1e-3)

    def infidelity(steps_per_ns):
        final = propagate(sys, params, steps_per_ns, store_trajectory=False).states[-1]
        return trace_infidelity(final, target)

    reference = infidelity(640)
    assert abs(infidelity(claim) - reference) <= 1e-5
    assert abs(infidelity(search) - reference) <= 5e-5
