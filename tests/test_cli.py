import csv
import json
from pathlib import Path

import numpy as np
import pytest

from quditpulse import ipr as ipr_mod
from quditpulse.cli import build_system, load_config, main
from quditpulse.dynamics import default_steps_per_ns, propagate, resolutions
from quditpulse.model import embed_target, gate, transmon_system
from quditpulse.objective import trace_infidelity
from quditpulse.optimize import OptResult
from quditpulse.pulse import (
    INTEGRATOR,
    default_params,
    eval_controls,
    load_pulse,
    write_json,
)
from reference import random_pulse, write_pulse


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

    def test_stored_fidelity_is_the_certificate(self, tmp_path):
        # The claim rule of ipr and sweep: 1 - max of the infidelities at the
        # claim resolution and at twice it, recomputed from the saved pulse.
        cfg = _write_config(tmp_path / "cfg.json", seed=0)
        out = tmp_path / "pulse.json"
        assert main([
            "optimize", "--config", cfg, "--gate", "X_d", "--d", "2",
            "--T", "30", "--out", str(out),
        ]) == 0
        system, params, fidelity, meta = load_pulse(out)
        target = embed_target(gate("X_d", 2), system)
        claim = default_steps_per_ns(system)
        assert meta["steps_per_ns"] == claim
        values = [trace_infidelity(propagate(system, params, res,
                                             store_trajectory=False).states[-1], target)
                  for res in (claim, 2 * claim)]
        assert fidelity == 1.0 - max(values)

    def test_pulse_records_the_claim_override(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", integrator={"steps_per_ns": 24})
        out = tmp_path / "pulse.json"
        assert main([
            "optimize", "--config", cfg, "--gate", "X_d", "--d", "2",
            "--T", "30", "--out", str(out),
        ]) == 0
        assert load_pulse(out)[3]["steps_per_ns"] == 24

    def test_uncertified_pulse_exits_2(self, tmp_path, capsys, monkeypatch):
        # Passes at the claim resolution, fails at twice it.
        monkeypatch.setattr(ipr_mod.StandardOptimizer, "certificate",
                            lambda self, sys, params, target, claim: [5e-4, 2e-3])
        cfg = _write_config(tmp_path / "cfg.json", seed=0)
        out = tmp_path / "pulse.json"
        assert main([
            "optimize", "--config", cfg, "--gate", "X_d", "--d", "2",
            "--T", "30", "--out", str(out),
        ]) == 2
        assert "converged=False reason=uncertified" in capsys.readouterr().out
        assert load_pulse(out)[2] == 1.0 - 2e-3

    def test_log_holds_the_coarse_then_the_continuation_rows(self, tmp_path, capsys,
                                                             monkeypatch):
        # A coarse run converges but misses at the claim resolution, so a
        # second run continues there; each numbers its rows from 1.  The fakes
        # tag each run's pulse by its coefficient 2, which no boundary spline
        # pins.
        search, claim = resolutions(transmon_system(num_qudits=1, d=2, guard=2), 1e-3)
        histories = [[(1, 0.3, 0.2, 0.0, 1.0), (2, 0.1, 0.05, 0.0, 0.5)],
                     [(1, 0.01, 6e-4, 0.0, 1.0)]]
        tags = [0.01, 0.02]
        infidelity = {(0.01, claim): 2e-3, (0.02, claim): 6e-4, (0.02, 2 * claim): 7e-4}
        calls = []

        def fake_minimize(sys, params, target, cfg, max_iter, steps_per_ns):
            alpha = params.alpha.copy()
            alpha[2] = tags[len(calls)]
            history = histories[len(calls)]
            calls.append(steps_per_ns)
            return OptResult(alpha, 1.0, history, len(history), "converged", 1, 1)

        monkeypatch.setattr(ipr_mod, "minimize", fake_minimize)
        monkeypatch.setattr(ipr_mod, "_infidelity", lambda sys, params, target, res:
                            infidelity[(float(params.alpha[2]), res)])
        out = tmp_path / "pulse.json"
        assert main([
            "optimize", "--gate", "X_d", "--d", "2", "--T", "30", "--out", str(out),
        ]) == 0
        assert calls == [search, claim]
        with open(str(out) + ".iters.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == [[str(x) for x in row] for row in histories[0] + histories[1]]
        assert f"iterations={len(rows)} " in capsys.readouterr().out
        assert load_pulse(out)[2] == 1.0 - 7e-4


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

    def test_run_config_repeats_the_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "system": {"guard": 1, "omega_ghz": [4.9]},
            "objective": {"w_guard": 0.2, "w_l2": 0.001},
            "optimizer": {"max_iter": 300, "guess_scale": 0.02},
            "integrator": {"steps_per_ns": 24},
            "seed": 7,
        }))
        argv = ["ipr", "--gate", "H_d", "--d", "2", "--t-start", "28", "--step", "4"]
        first, again = tmp_path / "first.json", tmp_path / "again.json"
        assert main(argv + ["--config", str(cfg), "--out", str(first)]) == 0
        run_config = tmp_path / "run_config.json"
        run_config.write_text(json.dumps(json.loads(first.read_text())["run_config"]))
        assert load_config(str(run_config)) == load_config(str(cfg))
        assert main(argv + ["--config", str(run_config), "--out", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()
        assert json.loads(first.read_text())["best_pulse"]["metadata"]["steps_per_ns"] == 24


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

    def test_run_config_sidecar_repeats_the_sweep(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", seed=41, guard=1, guess_scale=0.02)
        argv = ["sweep", "--gate", "X_d", "--d-range", "2..3", "--runs", "2",
                "--mock-threshold", "21"]
        first, again = tmp_path / "first.csv", tmp_path / "again.csv"
        assert main(argv + ["--config", cfg, "--out", str(first)]) == 0
        sidecar = tmp_path / "first.csv.run_config.json"
        assert load_config(str(sidecar)) == load_config(cfg)
        assert main(argv + ["--config", str(sidecar), "--out", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()
        assert (tmp_path / "again.csv.run_config.json").read_bytes() == sidecar.read_bytes()

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
        for entry in doc["X_d"].values():
            assert list(entry) == ["a", "b", "c", "std_errors", "r_squared", "degenerate",
                                   "evaluated"]
        assert doc["X_d"]["linear"]["a"] is None and len(quad["std_errors"]) == 3

    def test_missing_file(self, tmp_path):
        code = main([
            "fit", "--in", str(tmp_path / "nope.csv"), "--out",
            str(tmp_path / "fit.json"),
        ])
        assert code == 1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_duration_rejected(self, tmp_path, capsys, value):
        src = tmp_path / "sweep.csv"
        self._write_sweep_csv(src)
        with open(src, "a", newline="") as fh:
            csv.writer(fh).writerow(["X_d", 9, 0, 1, 200, value, "0.9991", "", ""])
        out = tmp_path / "fit.json"
        assert main(["fit", "--in", str(src), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed durations CSV") and repr(value) in err
        assert not out.exists()


def test_write_json_rejects_nan_before_opening(tmp_path):
    out = tmp_path / "doc.json"
    with pytest.raises(ValueError):
        write_json(out, {"b": float("nan")})
    assert not out.exists()


class TestSimulateCommand:
    def test_zero_pulse_constant_populations(self, tmp_path):
        sys = transmon_system(num_qudits=1, d=2, guard=0, omega_rot_ghz=4.914)
        pulse_path = tmp_path / "pulse.json"
        write_pulse(pulse_path, sys, default_params(sys, 12.0))
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
        write_pulse(pulse_path, sys, fidelity=0.5, metadata={"gate": "X_d"})
        doc = json.loads(pulse_path.read_text())
        del doc["metadata"]["integrator"], doc["metadata"]["steps_per_ns"]
        pulse_path.write_text(json.dumps(doc))
        sys2, params, fidelity, meta = load_pulse(pulse_path)
        assert sys2 == sys and params.T == 10.0 and fidelity == 0.5
        assert meta == {"gate": "X_d", "tool_version": doc["metadata"]["tool_version"]}
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--pulse", str(pulse_path), "--out", str(out)]) == 0

    def test_replays_the_recorded_resolution(self, tmp_path):
        cfg = _write_config(tmp_path / "cfg.json", integrator={"steps_per_ns": 24})
        pulse_path = tmp_path / "pulse.json"
        assert main([
            "optimize", "--config", cfg, "--gate", "X_d", "--d", "2",
            "--T", "30", "--out", str(pulse_path),
        ]) == 0
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--pulse", str(pulse_path), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 721  # 30 ns x 24 steps/ns + 1
        argv = ["simulate", "--pulse", str(pulse_path), "--steps-per-ns", "13", "--out", str(out)]
        assert main(argv) == 0
        assert len(out.read_text().splitlines()) == 1 + 391

    def test_byte_identical_reruns(self, tmp_path):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        pulse_path = tmp_path / "pulse.json"
        write_pulse(pulse_path, sys, random_pulse(sys, 17.0, 0.4, 3), 0.5)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--pulse", str(pulse_path), "--out", str(out1)]) == 0
        assert main(["simulate", "--pulse", str(pulse_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestExportLabCommand:
    def test_zero_pulse(self, tmp_path):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        pulse_path = tmp_path / "pulse.json"
        write_pulse(pulse_path, sys)
        out = tmp_path / "lab.csv"
        assert main(["export-lab", "--pulse", str(pulse_path), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["f_0"]) == 0.0 for r in rows)

    def test_amplitude_bound_and_demodulation(self, tmp_path):
        sys = transmon_system(num_qudits=1, d=3, guard=2)
        params = random_pulse(sys, 25.0, 1.0, 8)
        pulse_path = tmp_path / "pulse.json"
        write_pulse(pulse_path, sys, params, 0.5)
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
        write_pulse(pulse_path, sys)
        code = main([
            "export-lab", "--pulse", str(pulse_path), "--sample-rate", "0",
            "--out", str(tmp_path / "lab.csv"),
        ])
        assert code == 1


def test_readme_config_block_states_the_defaults(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1]
    path = tmp_path / "readme.json"
    path.write_text(section.split("```json\n", 1)[1].split("```", 1)[0])
    documented, default = load_config(str(path)), load_config(None)
    for gate_name in ("X_d", "CNOT"):
        assert build_system(documented, gate_name, 3) == build_system(default, gate_name, 3)
    for name in ("objective", "optimizer", "integrator", "seed"):
        assert documented[name] == default[name]


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
        {"system": {"omega_ghz": []}},
        {"system": {"xi_ghz": []}},
    ])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, doc):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "p.json"
        code = main([
            "optimize", "--config", str(path), "--gate", "X_d", "--d", "2",
            "--T", "30", "--out", str(out),
        ])
        (key, value), = doc.items()
        if isinstance(value, dict):
            (key, _), = value.items()
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert code == 1 and errors and key in errors[0]
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
        {"objective": {"w_guard": -0.1}},
        {"objective": {"w_l2": -1}},
        {"optimizer": {"max_iter": 0}},
        {"integrator": {"steps_per_ns": 0}},
    ])
    def test_config_value_out_of_range(self, tmp_path, capsys, command, doc):
        self._assert_rejected(tmp_path, capsys, command, doc)

    @pytest.mark.parametrize("doc", [pytest.param({"optimizer": {"guess_scale": 1.5}}, id="doc1")])
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

    @pytest.mark.parametrize("gate_name, system", [
        ("X_d", {"omega_rot_ghz": 1e308}),
        ("CNOT", {"omega_rot_ghz": 1e308}),
        ("X_d", {"omega_ghz": [1e308]}),
        ("X_d", {"xi_ghz": [1e308]}),
        ("CNOT", {"coupling_ghz": 1e308}),
        ("CNOT", {"omega_ghz": [1e307, 5]}),
    ], ids=["X_d-omega_rot_ghz", "CNOT-omega_rot_ghz", "X_d-omega_ghz", "X_d-xi_ghz",
            "CNOT-coupling_ghz", "CNOT-omega_ghz"])
    def test_frequency_that_overflows_is_named(self, tmp_path, capsys, gate_name, system):
        # Finite in GHz, but not in rad/ns, or (the last case) finite in
        # rad/ns but not once squared.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"system": system}))
        out = tmp_path / "p.json"
        code = main(["optimize", "--config", str(path), "--gate", gate_name, "--T", "10",
                     "--out", str(out)])
        err = capsys.readouterr().err
        (key,) = system
        assert code == 1 and err.startswith("error:") and key in err.splitlines()[0]
        assert "Traceback" not in err
        assert not out.exists()

    def test_pulse_carrier_whose_error_bound_overflows(self, tmp_path, capsys):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        pulse_path = tmp_path / "pulse.json"
        write_pulse(pulse_path, sys)
        doc = json.loads(pulse_path.read_text())
        doc["system"]["omega_rot"] = 1e300  # rad/ns: the rule's carrier**2 overflows
        del doc["metadata"]["steps_per_ns"]  # so the rule picks the resolution
        pulse_path.write_text(json.dumps(doc))
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--pulse", str(pulse_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("d_range", ["2..a", "2..", "..3", "a"])
    def test_unparsable_d_range_is_named(self, tmp_path, capsys, d_range):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--gate", "X_d", "--d-range", d_range, "--runs", "1",
                     "--mock-threshold", "20", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and "--d-range" in err
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
        write_pulse(pulse_path, sys)
        argv = [str(pulse_path) if a == "PULSE" else a for a in argv]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1 and _error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("argv, named", [
        (["optimize", "--gate", "X_d", "--d", "1", "--T", "30"], "need at least 2 essential levels"),
        (["export-lab", "--pulse", "PULSE", "--sample-rate", "1e308"], "--sample-rate"),
        # Arrays beyond any process address space (1.39 EiB, 710 PiB): numpy
        # refuses them at once, and the error names the option that sized them.
        *(pytest.param(argv, argv[-2], id=f"argv{i}-Unable to allocate") for i, argv in enumerate([
            ["optimize", "--gate", "X_d", "--d", "2", "--T", "1e18"],
            ["export-lab", "--pulse", "PULSE", "--sample-rate", "1e16"],
            ["ipr", "--gate", "X_d", "--t-start", "1e18"],
            ["sweep", "--gate", "X_d", "--d-range", "2", "--runs", "1", "--t-start", "1e18"],
        ], start=2)),
    ])
    def test_bad_argument_is_named(self, tmp_path, capsys, argv, named):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        pulse_path = tmp_path / "pulse.json"
        write_pulse(pulse_path, sys)
        argv = [str(pulse_path) if a == "PULSE" else a for a in argv]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "export-lab"])
    @pytest.mark.parametrize("mangle", ["root_not_object", "omega_number", "T_infinite",
                                        "extra_control", "missing_control", "no_controls",
                                        "abc", 2.5, True, 0])
    def test_malformed_pulse_document(self, tmp_path, capsys, command, mangle):
        sys = transmon_system(num_qudits=2 if mangle == "missing_control" else 1, d=2, guard=2)
        pulse_path = tmp_path / "pulse.json"
        write_pulse(pulse_path, sys)
        doc = json.loads(pulse_path.read_text())
        if mangle == "root_not_object":
            doc = [1, 2]
        elif mangle == "omega_number":
            doc["system"]["omega"] = 5.0
        elif mangle == "extra_control":  # a second control on one qudit
            doc["carriers_rot"] *= 2
            doc["alpha"] *= 2
        elif mangle == "missing_control":  # one control for two qudits
            doc["carriers_rot"] = doc["carriers_rot"][:1]
            doc["alpha"] = doc["alpha"][:len(doc["alpha"]) // 2]
        elif mangle == "no_controls":
            doc["carriers_rot"], doc["alpha"] = [], []
        elif mangle != "T_infinite":  # a recorded resolution that is no positive integer
            doc["metadata"]["steps_per_ns"] = mangle
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
