import csv
import json

import numpy as np
import pytest

from quditpulse.cli import main
from quditpulse.dynamics import INTEGRATOR
from quditpulse.model import transmon_system
from quditpulse.pulse import (
    default_params,
    eval_controls,
    load_pulse,
    random_guess,
    save_pulse,
)


def _write_config(path, **overrides):
    doc = {
        "system": {"guard": overrides.pop("guard", 2)},
        "objective": {},
        "optimizer": {"guess_scale": overrides.pop("guess_scale", 0.01)},
        "integrator": {},
        "seed": overrides.pop("seed", 0),
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return str(path)


class TestOptimizeCommand:
    def test_end_to_end_converges(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", seed=0)
        out = tmp_path / "pulse.json"
        code = main([
            "optimize", "--config", cfg, "--gate", "X_d", "--d", "2",
            "--T", "30", "--out", str(out),
        ])
        assert code == 0
        _, params, fidelity, meta = load_pulse(out)
        assert fidelity >= 0.999
        assert params.T == 30.0
        assert meta["gate"] == "X_d"
        assert meta["integrator"] == INTEGRATOR == "strang"
        log = out.parent / (out.name + ".iters.csv")
        with open(log) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "objective", "infidelity",
                          "guard_penalty", "step_size"]
        assert len(rows) > 1

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "pulse.json"
        code = main([
            "optimize", "--config", str(bad), "--gate", "X_d", "--d", "2",
            "--T", "30", "--out", str(out),
        ])
        assert code == 1
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"system": {"bogus": 1}}))
        code = main([
            "optimize", "--config", str(bad), "--gate", "X_d", "--d", "2",
            "--T", "30", "--out", str(tmp_path / "p.json"),
        ])
        assert code == 1

    def test_nonpositive_duration(self, tmp_path):
        code = main([
            "optimize", "--gate", "X_d", "--d", "2", "--T", "0",
            "--out", str(tmp_path / "p.json"),
        ])
        assert code == 1

    def test_unknown_gate_rejected(self, tmp_path):
        code = main([
            "optimize", "--gate", "Q_d", "--d", "2", "--T", "30",
            "--out", str(tmp_path / "p.json"),
        ])
        assert code == 1

    def test_custom_log_path(self, tmp_path, capsys):
        cfg = _write_config(tmp_path / "cfg.json", seed=0)
        out, log = tmp_path / "pulse.json", tmp_path / "my.log.csv"
        code = main([
            "optimize", "--config", cfg, "--gate", "H_d", "--d", "2",
            "--T", "30", "--out", str(out), "--log", str(log),
        ])
        assert code == 0
        assert log.exists()
        assert "reason=converged" in capsys.readouterr().out


class TestIprCommand:
    def test_mock_threshold_finds_76(self, tmp_path):
        out = tmp_path / "ipr.json"
        code = main([
            "ipr", "--gate", "H_d", "--d", "4", "--t-start", "70",
            "--step", "8", "--mock-threshold", "76", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["T_best"] == 76.0
        assert [r["T"] for r in doc["records"]] == [70, 78, 70, 74, 76, 74, 75]
        assert [r["reason"] for r in doc["records"]] == [
            "converged" if r["success"] else "max_iter" for r in doc["records"]
        ]
        assert all(r["n_forward"] == r["n_gradient"] == 0 for r in doc["records"])
        assert doc["best_pulse"]["T_ns"] == 76.0
        assert doc["best_pulse"]["metadata"]["integrator"] == INTEGRATOR
        assert doc["config"]["step"] == 8.0

    def test_search_failure_exit_code(self, tmp_path):
        out = tmp_path / "ipr.json"
        code = main([
            "ipr", "--gate", "X_d", "--d", "2", "--t-start", "10",
            "--step", "4", "--mock-threshold", "1e9", "--out", str(out),
        ])
        assert code == 2
        doc = json.loads(out.read_text())
        assert doc["summary"]["T_best"] is None
        assert doc["best_pulse"] is None

    def test_real_small_search(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", seed=1234)
        out = tmp_path / "ipr.json"
        code = main([
            "ipr", "--config", cfg, "--gate", "H_d", "--d", "2",
            "--t-start", "28", "--step", "4", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["fidelity_best"] >= 0.999
        assert doc["best_pulse"]["fidelity"] >= 0.999
        assert doc["best_pulse"]["metadata"]["integrator"] == INTEGRATOR


class TestSweepCommand:
    def test_mock_sweep_rows_and_summary(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--gate", "X_d", "--d-range", "2..3", "--runs", "2",
            "--mock-threshold", "21", "--out", str(out),
        ])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        data = [r for r in rows if r["run"] != "summary"]
        summaries = [r for r in rows if r["run"] == "summary"]
        assert len(data) == 4 and len(summaries) == 2
        best = {int(r["d"]): float(r["T_best"]) for r in summaries}
        assert best[3] > best[2]

    def test_single_run_single_d(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--gate", "X_d", "--d-range", "2", "--runs", "1",
            "--mock-threshold", "15", "--out", str(out),
        ])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2  # one data row plus one summary row

    def test_deterministic_bytes(self, tmp_path):
        args = [
            "sweep", "--gate", "H_d", "--d-range", "2..3", "--runs", "3",
            "--mock-threshold", "17",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_range(self, tmp_path):
        code = main([
            "sweep", "--gate", "X_d", "--d-range", "1..0", "--runs", "1",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 1


class TestFitCommand:
    def _write_sweep_csv(self, path, coeffs=(2.0, 3.0, 5.0)):
        a, b, c = coeffs
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["gate", "d", "run", "seed", "T_start", "T_best",
                             "fidelity", "mean", "std"])
            for d in range(2, 9):
                t = a * d * d + b * d + c
                writer.writerow(["X_d", d, 0, 1, t + 5, t, "0.9991", "", ""])
                writer.writerow(["X_d", d, "summary", "", "", t, "0.9991", t, 0.0])

    def test_exact_recovery_and_table(self, tmp_path):
        src = tmp_path / "sweep.csv"
        self._write_sweep_csv(src)
        out = tmp_path / "fit.json"
        code = main(["fit", "--in", str(src), "--model", "both", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        quad = doc["X_d"]["quadratic"]
        assert quad["a"] == pytest.approx(2.0, abs=1e-8)
        assert quad["b"] == pytest.approx(3.0, abs=1e-8)
        assert quad["c"] == pytest.approx(5.0, abs=1e-8)
        assert set(quad["evaluated"]) == {str(d) for d in range(2, 9)}
        assert doc["X_d"]["linear"]["r_squared"] <= quad["r_squared"]

    def test_missing_file(self, tmp_path):
        code = main([
            "fit", "--in", str(tmp_path / "nope.csv"), "--out",
            str(tmp_path / "fit.json"),
        ])
        assert code == 1


class TestSimulateCommand:
    def test_zero_pulse_constant_populations(self, tmp_path):
        sys = transmon_system(num_qudits=1, d=2, guard=0, omega_rot_ghz=4.914)
        pulse_path = tmp_path / "pulse.json"
        save_pulse(pulse_path, sys, default_params(sys, 12.0), 1.0, {})
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--pulse", str(pulse_path), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        for name in ("pop_c0_s0", "pop_c1_s1", "guard_avg"):
            vals = np.array([float(r[name]) for r in rows])
            assert np.allclose(vals, vals[0], atol=1e-12)
        assert float(rows[0]["pop_c0_s0"]) == 1.0

    def test_converged_pulse_populations(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", seed=0)
        pulse_path = tmp_path / "pulse.json"
        assert main([
            "optimize", "--config", cfg, "--gate", "H_d", "--d", "2",
            "--T", "30", "--out", str(pulse_path),
        ]) == 0
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--pulse", str(pulse_path), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        final = rows[-1]
        # equal-superposition target: essential populations near 1/2 per column
        for col in range(2):
            for state in range(2):
                assert float(final[f"pop_c{col}_s{state}"]) == pytest.approx(
                    0.5, abs=0.01
                )
        guard_max = max(float(r["guard_avg"]) for r in rows)
        assert guard_max <= 5e-3

    def test_pulse_file_without_integrator_tag(self, tmp_path):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        pulse_path = tmp_path / "pulse.json"
        save_pulse(pulse_path, sys, default_params(sys, 10.0), 0.5, {"gate": "X_d"})
        doc = json.loads(pulse_path.read_text())
        del doc["metadata"]["integrator"]
        pulse_path.write_text(json.dumps(doc))
        sys2, params, fidelity, meta = load_pulse(pulse_path)
        assert sys2 == sys and params.T == 10.0 and fidelity == 0.5
        assert meta == {"gate": "X_d", "tool_version": doc["metadata"]["tool_version"]}
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--pulse", str(pulse_path), "--out", str(out)]) == 0

    def test_byte_identical_reruns(self, tmp_path):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        params = default_params(sys, 17.0)
        params = params.with_alpha(random_guess(params, 0.4, 3))
        pulse_path = tmp_path / "pulse.json"
        save_pulse(pulse_path, sys, params, 0.5, {})
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--pulse", str(pulse_path), "--out", str(out1)]) == 0
        assert main(["simulate", "--pulse", str(pulse_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestExportLabCommand:
    def test_zero_pulse(self, tmp_path):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        pulse_path = tmp_path / "pulse.json"
        save_pulse(pulse_path, sys, default_params(sys, 10.0), 1.0, {})
        out = tmp_path / "lab.csv"
        assert main(["export-lab", "--pulse", str(pulse_path), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["f_0"]) == 0.0 for r in rows)

    def test_amplitude_bound_and_demodulation(self, tmp_path):
        sys = transmon_system(num_qudits=1, d=3, guard=2)
        params = default_params(sys, 25.0)
        params = params.with_alpha(random_guess(params, 1.0, 8))
        pulse_path = tmp_path / "pulse.json"
        save_pulse(pulse_path, sys, params, 0.5, {})
        out = tmp_path / "lab.csv"
        assert main([
            "export-lab", "--pulse", str(pulse_path), "--sample-rate", "32",
            "--out", str(out),
        ]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        times = np.array([float(r["time_ns"]) for r in rows])
        f = np.array([float(r["f_0"]) for r in rows])
        assert np.max(np.abs(f)) <= 2 * np.pi * 0.040 + 1e-12
        p, q = eval_controls(params, times)
        predicted = 2 * (p[0] * np.cos(sys.omega_rot * times)
                         - q[0] * np.sin(sys.omega_rot * times))
        assert np.max(np.abs(f - predicted)) < 1e-6

    def test_bad_sample_rate(self, tmp_path):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        pulse_path = tmp_path / "pulse.json"
        save_pulse(pulse_path, sys, default_params(sys, 10.0), 1.0, {})
        code = main([
            "export-lab", "--pulse", str(pulse_path), "--sample-rate", "0",
            "--out", str(tmp_path / "lab.csv"),
        ])
        assert code == 1


def _error_line(capsys) -> bool:
    err = capsys.readouterr().err
    return any(line.startswith("error:") for line in err.splitlines())


class TestBadInput:
    """Bad input exits 1 with an ``error:`` line, never a traceback."""

    @pytest.mark.parametrize("doc", [
        {"seed": "abc"},
        {"system": {"guard": "2"}},
        {"system": {"guard": 1.5}},
        {"system": {"omega_ghz": 5}},
        {"optimizer": {"max_iter": "10"}},
        {"optimizer": {"max_iter": 1.5}},
        {"integrator": {"steps_per_ns": "20"}},
        {"objective": {"error_threshold": "x"}},
        {"optimizer": {"guess_scale": None}},
    ])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "p.json"
        code = main([
            "optimize", "--config", str(path), "--gate", "X_d", "--d", "2",
            "--T", "30", "--out", str(out),
        ])
        assert code == 1 and _error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["optimize", "--T", "30"],
        ["ipr", "--t-start", "30"],
        ["ipr", "--t-start", "30", "--mock-threshold", "20"],
        ["sweep", "--d-range", "2", "--runs", "2", "--mock-threshold", "20"],
    ])
    @pytest.mark.parametrize("doc", [
        {"system": {"guard": -1}},
        {"objective": {"error_threshold": 0}},
        {"objective": {"error_threshold": 1}},
    ])
    def test_config_value_out_of_range(self, tmp_path, capsys, command, doc):
        self._assert_rejected(tmp_path, capsys, command, doc)

    @pytest.mark.parametrize("doc", [
        {"objective": {"w_guard": -0.1}},
        {"optimizer": {"guess_scale": 1.5}},
    ])
    def test_optimize_config_value_out_of_range(self, tmp_path, capsys, doc):
        self._assert_rejected(tmp_path, capsys, ["optimize", "--T", "30"], doc)

    @staticmethod
    def _assert_rejected(tmp_path, capsys, command, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main([command[0], "--config", str(path), "--gate", "X_d", *command[1:],
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and any(line.startswith("error:") for line in err.splitlines())
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["optimize", "--gate", "X_d", "--T", "inf"],
        ["optimize", "--gate", "X_d", "--T", "nan"],
        ["optimize", "--gate", "X_d", "--T", "-3"],
        ["ipr", "--gate", "X_d", "--t-start", "inf", "--mock-threshold", "20"],
        ["ipr", "--gate", "X_d", "--t-start", "30", "--step", "inf", "--mock-threshold", "20"],
        ["sweep", "--gate", "X_d", "--d-range", "2", "--t-start", "0", "--mock-threshold", "20"],
        ["export-lab", "--pulse", "PULSE", "--sample-rate", "inf"],
    ])
    def test_duration_not_finite_and_positive(self, tmp_path, capsys, argv):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        pulse_path = tmp_path / "pulse.json"
        save_pulse(pulse_path, sys, default_params(sys, 10.0), 1.0, {})
        argv = [str(pulse_path) if a == "PULSE" else a for a in argv]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1 and _error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "export-lab"])
    @pytest.mark.parametrize("mangle", ["root_not_object", "omega_number", "T_infinite"])
    def test_malformed_pulse_document(self, tmp_path, capsys, command, mangle):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        pulse_path = tmp_path / "pulse.json"
        save_pulse(pulse_path, sys, default_params(sys, 10.0), 1.0, {})
        doc = json.loads(pulse_path.read_text())
        if mangle == "root_not_object":
            doc = [1, 2]
        elif mangle == "omega_number":
            doc["system"]["omega"] = 5.0
        else:
            doc["T_ns"] = float("inf")
        pulse_path.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        assert main([command, "--pulse", str(pulse_path), "--out", str(out)]) == 1
        assert "error: malformed pulse JSON" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["ipr", "--gate", "X_d", "--t-start", "30"],
        ["sweep", "--gate", "X_d", "--d-range", "2", "--runs", "2"],
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-5"])
    def test_mock_threshold_not_finite_and_positive(self, tmp_path, capsys, command, value):
        out = tmp_path / "out"
        code = main(command + ["--mock-threshold", value, "--out", str(out)])
        assert code == 1 and _error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_bad_thread_count(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("QUDITPULSE_THREADS", value)
        code = main([
            "sweep", "--gate", "X_d", "--d-range", "2", "--runs", "2",
            "--mock-threshold", "21", "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "QUDITPULSE_THREADS" in err
