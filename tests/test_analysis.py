import numpy as np
import pytest

from quditpulse.analysis import FitResult, evaluate_fit, fit


class TestFit:
    def test_exact_quadratic_recovery(self):
        pts = [(d, 2.0 * d * d + 3.0 * d + 5.0) for d in range(2, 9)]
        res = fit(pts, "quadratic")
        assert res.a == pytest.approx(2.0, abs=1e-8)
        assert res.b == pytest.approx(3.0, abs=1e-8)
        assert res.c == pytest.approx(5.0, abs=1e-8)
        assert res.r_squared == pytest.approx(1.0, abs=1e-12)
        assert not res.degenerate

    def test_exact_linear_recovery(self):
        pts = [(d, 4.0 * d - 1.0) for d in range(2, 7)]
        res = fit(pts, "linear")
        assert res.a is None
        assert res.b == pytest.approx(4.0, abs=1e-10)
        assert res.c == pytest.approx(-1.0, abs=1e-10)

    def test_constant_data_degenerate(self):
        res = fit([(d, 7.0) for d in range(2, 7)], "linear")
        assert res.b == pytest.approx(0.0, abs=1e-10)
        assert res.r_squared == 1.0
        assert res.degenerate

    def test_nested_models_r_squared(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            pts = [
                (d, 1.5 * d * d + 10.0 * d + 3.0 + rng.normal(0, 5.0))
                for d in range(2, 9)
            ]
            assert fit(pts, "quadratic").r_squared >= fit(pts, "linear").r_squared

    def test_order_invariance(self):
        rng = np.random.default_rng(2)
        pts = [(d, 3.0 * d + rng.normal(0, 1.0)) for d in range(2, 9)]
        shuffled = list(pts)
        rng.shuffle(shuffled)
        r1, r2 = fit(pts, "quadratic"), fit(shuffled, "quadratic")
        assert r1.b == pytest.approx(r2.b, rel=1e-12)
        assert r1.r_squared == pytest.approx(r2.r_squared, rel=1e-12)

    def test_monte_carlo_coverage(self):
        # Known linear generator with Gaussian noise: both coefficients fall
        # within three standard errors of truth in at least 99% of trials.
        rng = np.random.default_rng(42)
        hits = 0
        trials = 1000
        d = np.linspace(1, 10, 40)
        for _ in range(trials):
            t = 4.0 * d + 12.0 + rng.normal(0, 2.0, size=d.size)
            res = fit(list(zip(d, t)), "linear")
            hits += (
                abs(res.b - 4.0) <= 3 * res.std_errors[0]
                and abs(res.c - 12.0) <= 3 * res.std_errors[1]
            )
        assert hits >= 0.99 * trials

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            fit([(2, 10.0), (3, 20.0), (4, 30.0)], "quadratic")

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            fit([(2, 1.0), (3, 2.0), (4, 3.0)], "cubic")

    def test_std_errors_nonnegative(self):
        rng = np.random.default_rng(3)
        pts = [(d, 2.0 * d + rng.normal(0, 1.0)) for d in range(2, 12)]
        res = fit(pts, "quadratic")
        assert all(se >= 0.0 for se in res.std_errors)


class TestEvaluateFit:
    def test_linear_at_zero_returns_constant(self):
        res = FitResult("linear", None, 5.0, 2.5, (0.1, 0.1), 0.9)
        assert evaluate_fit(res, 0) == 2.5
