import numpy as np
import pytest

from quditpulse.dynamics import default_steps_per_ns
from quditpulse.model import carrier_midpoint, transmon_system
from quditpulse.pulse import (
    PulseParams,
    alpha_bound,
    basis_matrix,
    carrier_frequencies,
    controls_adjoint,
    default_params,
    eval_controls,
    lab_frame_control,
    load_pulse,
    num_bsplines,
    pulse_doc,
    pulse_from_doc,
    random_guess,
    refit,
    sample_grid,
)
from reference import write_pulse

TWO_PI = 2 * np.pi


class TestCarriers:
    def test_single_qubit_single_carrier(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        lab, rot = carrier_frequencies(sys)
        assert lab == [[sys.omega[0]]]
        assert rot[0][0] == pytest.approx(0.0, abs=1e-15)
        assert carrier_midpoint(sys.omega, sys.xi, sys.d) == pytest.approx(sys.omega[0])

    def test_single_qudit_d4_midpoint(self):
        sys = transmon_system(num_qudits=1, d=4, guard=2)
        assert carrier_midpoint(sys.omega, sys.xi, sys.d) == pytest.approx(
            sys.omega[0] + sys.xi[0]
        )

    def test_carrier_count(self):
        sys1 = transmon_system(num_qudits=1, d=5, guard=2)
        assert len(carrier_frequencies(sys1)[1][0]) == 4
        sys2 = transmon_system(num_qudits=2, d=3, guard=2)
        assert all(len(c) == 4 for c in carrier_frequencies(sys2)[1])

    @pytest.mark.parametrize("num_qudits,d", [(1, 2), (1, 5), (2, 3), (2, 4)])
    def test_default_rotating_frame_matches_operation(self, num_qudits, d):
        sys = transmon_system(num_qudits=num_qudits, d=d, guard=2)
        assert sys.omega_rot == pytest.approx(
            carrier_midpoint(sys.omega, sys.xi, sys.d), abs=1e-15
        )


class TestSplineCount:
    @pytest.mark.parametrize("T,expected", [(70, 9), (76, 10), (15, 4), (50, 7)])
    def test_values(self, T, expected):
        assert num_bsplines(T) == expected

    def test_minimum(self):
        assert num_bsplines(1.0) == 3

    def test_positive_duration(self):
        with pytest.raises(ValueError):
            num_bsplines(0.0)


class TestAlphaBound:
    @pytest.mark.parametrize(
        "n_f,mhz", [(1, 14.1421356), (2, 7.0710678), (7, 2.0203051)]
    )
    def test_values(self, n_f, mhz):
        assert alpha_bound(n_f) / TWO_PI * 1e3 == pytest.approx(mhz, abs=1e-6)


class TestBasis:
    def test_partition_of_unity_interior(self):
        for n_b, T in [(5, 30.0), (9, 70.0), (12, 104.0)]:
            spacing = T / (n_b - 1)
            t = np.linspace(3 * spacing, T - 3 * spacing, 101)
            total = basis_matrix(n_b, T, t).sum(axis=1)
            assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_compact_support(self):
        n_b, T = 9, 70.0
        spacing = T / (n_b - 1)
        values = basis_matrix(n_b, T, [0.0])[0]
        # only splines centered within 1.5 spacings of t=0 contribute
        assert np.all(values[2:] == 0.0)
        center = 4 * spacing
        for t in (center - 1.6 * spacing, center + 1.6 * spacing):
            assert basis_matrix(n_b, T, [t])[0, 4] == 0.0

    def test_interior_peak(self):
        n_b, T = 9, 70.0
        spacing = T / (n_b - 1)
        assert basis_matrix(n_b, T, [4 * spacing])[0, 4] == pytest.approx(0.75)

    def test_range(self):
        vals = basis_matrix(7, 50.0, np.linspace(0, 50, 333))
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            basis_matrix(5, 10.0, [10.5])
        with pytest.raises(ValueError):
            basis_matrix(5, 10.0, [-0.5])


class TestEvalControls:
    def test_zero_alpha(self):
        sys = transmon_system(num_qudits=1, d=3, guard=2)
        params = default_params(sys, 40.0)
        p, q = eval_controls(params, np.linspace(0, 40, 50))
        assert np.all(p == 0.0) and np.all(q == 0.0)

    def test_constant_envelope_on_interior(self):
        # one carrier at frequency zero, all interior real coefficients equal
        amp = 0.01
        n_b = 7
        alpha = np.zeros((1, 1, n_b, 2))
        alpha[0, 0, 1:-1, 0] = amp
        params = PulseParams(50.0, ((0.0,),), n_b, alpha.reshape(-1), 0.02)
        spacing = 50.0 / (n_b - 1)
        t = np.linspace(1.5 * spacing, 50.0 - 1.5 * spacing, 60)
        p, q = eval_controls(params, t)
        assert np.allclose(p[0], amp, atol=1e-12)
        assert np.allclose(q[0], 0.0, atol=1e-12)

    def test_linear_in_alpha(self):
        sys = transmon_system(num_qudits=2, d=2, guard=1)
        params = default_params(sys, 30.0)
        rng = np.random.default_rng(3)
        a1 = random_guess(params, 0.4, rng)
        a2 = random_guess(params, 0.4, rng)
        t = np.linspace(0, 30, 40)
        p1, q1 = eval_controls(params.with_alpha(a1), t)
        p2, q2 = eval_controls(params.with_alpha(a2), t)
        p12, q12 = eval_controls(params.with_alpha(a1 + a2), t)
        assert np.allclose(p12, p1 + p2, atol=1e-12)
        assert np.allclose(q12, q1 + q2, atol=1e-12)

    def test_one_time(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = default_params(sys, 20.0)
        p, q = eval_controls(params, np.array([10.0]))
        assert p.shape == (1, 1) and q.shape == (1, 1)

    @pytest.mark.parametrize("num_qudits", [1, 2])
    def test_adjoint_dot_product(self, num_qudits):
        # <sens, controls(alpha)> = <controls_adjoint(sens), alpha>
        sys = transmon_system(num_qudits=num_qudits, d=3, guard=2)
        params = default_params(sys, 40.0)
        rng = np.random.default_rng(17)
        params = params.with_alpha(random_guess(params, 1.0, rng))
        t = np.sort(rng.uniform(0.0, 40.0, 300))
        sens = rng.standard_normal((2, params.num_controls, t.size))
        p, q = eval_controls(params, t)
        lhs = np.sum(sens[0] * p) + np.sum(sens[1] * q)
        grid = sample_grid(params.N_b, params.T, params.carriers, t)
        rhs = controls_adjoint(grid, sens) @ params.alpha
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestLabFrame:
    def test_zero_controls(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = default_params(sys, 20.0)
        assert np.all(lab_frame_control(params, sys.omega_rot, np.array([5.0])) == 0.0)

    def test_zero_rotation_is_twice_p(self):
        sys = transmon_system(num_qudits=1, d=3, guard=2)
        params = default_params(sys, 30.0)
        params = params.with_alpha(random_guess(params, 0.8, 11))
        t = np.linspace(0, 30, 64)
        p, _ = eval_controls(params, t)
        assert np.allclose(lab_frame_control(params, 0.0, t), 2 * p)

    def test_amplitude_bound(self):
        sys = transmon_system(num_qudits=1, d=4, guard=2)
        params = default_params(sys, 60.0)
        params = params.with_alpha(random_guess(params, 1.0, 21))
        t = np.linspace(0, 60, 4000)
        amp = np.abs(lab_frame_control(params, sys.omega_rot, t))
        n_f = params.num_carriers
        assert np.max(amp) <= 2 * np.sqrt(2) * n_f * params.alpha_max + 1e-12
        assert np.max(amp) <= TWO_PI * 0.040 + 1e-12


class TestRandomGuess:
    def test_zero_scale(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = default_params(sys, 30.0)
        assert np.all(random_guess(params, 0.0, 1) == 0.0)

    def test_within_bounds_and_pinned(self):
        sys = transmon_system(num_qudits=2, d=3, guard=2)
        params = default_params(sys, 45.0)
        alpha = random_guess(params, 1.0, 5)
        assert np.all(np.abs(alpha) <= params.alpha_max)
        assert np.all(alpha[params.boundary_mask()] == 0.0)

    def test_deterministic(self):
        sys = transmon_system(num_qudits=1, d=3, guard=2)
        params = default_params(sys, 30.0)
        assert np.array_equal(random_guess(params, 0.1, 77), random_guess(params, 0.1, 77))


class TestRefit:
    def test_zero_stays_zero(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        out = refit(default_params(sys, 40.0), 63.0)
        assert np.all(out.alpha == 0.0)

    def test_extension_appends_idle_time(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = default_params(sys, 40.0)
        params = params.with_alpha(random_guess(params, 0.5, 9))
        out = refit(params, 80.0)
        t_tail = np.linspace(55.0, 80.0, 50)
        p, q = eval_controls(out, t_tail)
        assert np.max(np.abs(p)) < 0.05 * params.alpha_max
        assert np.max(np.abs(q)) < 0.05 * params.alpha_max

    def test_rejects_bad_duration(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        with pytest.raises(ValueError):
            refit(default_params(sys, 40.0), 0.0)


class TestPulseParamsValidation:
    def test_bound_violation(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = default_params(sys, 30.0)
        bad = params.alpha.copy()
        bad[2] = 2 * params.alpha_max
        with pytest.raises(ValueError):
            params.with_alpha(bad)

    def test_boundary_violation(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = default_params(sys, 30.0)
        bad = params.alpha.copy()
        bad[0] = 0.5 * params.alpha_max
        with pytest.raises(ValueError):
            params.with_alpha(bad)

    @pytest.mark.parametrize("carriers", [(), ((),), ((),())])
    def test_no_control_or_no_carrier(self, carriers):
        with pytest.raises(ValueError, match="at least one"):
            PulseParams(30.0, carriers, 5, np.zeros(0), 0.02)

    def test_one_control_per_carrier_list(self):
        params = default_params(transmon_system(num_qudits=2, d=3, guard=2), 30.0)
        assert params.num_controls == len(params.carriers) == 2


class TestPulseJson:
    def test_round_trip_exact(self, tmp_path):
        sys = transmon_system(num_qudits=2, d=3, guard=2)
        params = default_params(sys, 47.0)
        params = params.with_alpha(random_guess(params, 0.9, 31))
        path = tmp_path / "pulse.json"
        write_pulse(path, sys, params, 0.99912345, {"gate": "SWAP_d"})
        sys2, params2, fid, meta = load_pulse(path)
        assert sys2 == sys
        assert params2.T == params.T
        assert params2.carriers == params.carriers
        assert params2.N_b == params.N_b
        assert np.array_equal(params2.alpha, params.alpha)
        assert params2.alpha_max == params.alpha_max
        assert fid == 0.99912345
        assert meta["gate"] == "SWAP_d"

    @pytest.mark.parametrize("fidelity", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_fidelity_rejected_before_writing(self, tmp_path, fidelity):
        # load_pulse rejects non-finite values, so save_pulse must not write them.
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        path = tmp_path / "pulse.json"
        with pytest.raises(ValueError):
            write_pulse(path, sys, default_params(sys, 20.0), fidelity)
        assert not path.exists()

    def test_doc_round_trip(self):
        sys = transmon_system(num_qudits=1, d=4, guard=1)
        params = default_params(sys, 33.0)
        doc = pulse_doc(sys, params, 0.5, {}, default_steps_per_ns(sys))
        sys2, params2, fid, _ = pulse_from_doc(doc)
        assert sys2 == sys and fid == 0.5
        assert np.array_equal(params2.alpha, params.alpha)
