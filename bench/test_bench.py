"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest bench/test_bench.py -q
"""

import importlib
import json
import math
import sys
import threading
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import quditpulse as qp  # noqa: E402
from quditpulse.ipr import IPRResult, MultiRunResult  # noqa: E402
from quditpulse.optimize import OptimizerAbort, OptResult  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

run.load_library()


def tiny_case(label="tiny", n_forward=2, n_gradient=1, seed=3):
    sys_ = qp.transmon_system(1, 2, 2)
    params = qp.default_params(sys_, 10.0)
    params = params.with_alpha(W.random_guess(params, 0.3, seed))
    return W.EvalCase(label, sys_, qp.gate("X_d", 2), params, n_forward, n_gradient)


def tiny_work():
    case = tiny_case()
    W.time_cases([case])
    qp.minimize(case.sys, case.params, case.target, W.OBJECTIVE, max_iter=2)


class TinyEval(W.EvalMatrix):
    def build(self, rng):
        self.cases = [tiny_case(label, 1, 1) for label in layers.MATRIX_LABELS]


def bindings():
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name.startswith("quditpulse") or name == "numpy.linalg"):
            for attr, value in vars(mod).items():
                if callable(value):
                    snap[(name, attr)] = value
    return snap


def test_tracer_restores_every_wrapped_name():
    before = bindings()
    original = importlib.import_module("quditpulse.optimize").objective_parts
    with spans.Tracer() as tracer:
        assert importlib.import_module("quditpulse.optimize").objective_parts is not original
        assert qp.minimize is not before[("quditpulse", "minimize")]
        tiny_work()
    assert not tracer.missing
    assert {s.name for s in tracer.spans} >= {
        "optimize.minimize", "objective.objective_parts", "objective.value_and_gradient",
        "dynamics.eigh", "pulse.eval_controls",
    }
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_per_thread_self_times_fit_in_wall_time():
    tracer = spans.Tracer()
    with tracer:
        t0 = time.perf_counter()
        threads = [threading.Thread(target=tiny_work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        wall = time.perf_counter() - t0
    assert not any(t.is_alive() for t in threads)
    selfs = spans.self_times(tracer.spans)
    per_thread = {}
    for s in tracer.spans:
        assert selfs[s.id] >= 0.0
        per_thread[s.thread] = per_thread.get(s.thread, 0.0) + selfs[s.id]
    assert len(per_thread) == 2
    assert all(total <= wall for total in per_thread.values())


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert set(spec["workloads"][i]["name"] for i in range(len(spec["workloads"]))) == set(
        run.WORKLOAD_NAMES) == set(W.WORKLOADS)

    wl = TinyEval(1)
    metrics, checked, _ = run.timed_run(wl, 0.0)
    assert not checked.failures
    assert set(metrics) | {"setup_s"} == set(run.END_TO_END)

    with spans.Tracer() as tracer:
        tiny_work()
    matrix = W.per_case_medians(W.time_cases(wl.cases))
    got = layers.layer_metrics(tracer.spans, tracer.missing, matrix, None)
    assert set(got) | {"trace.wall_s"} == set(layers.PER_LAYER)
    assert all(isinstance(v, (int, float)) for v in got.values())


def test_missing_function_reads_as_absent(monkeypatch):
    objective_module = importlib.import_module("quditpulse.objective")
    monkeypatch.delattr(objective_module, "objective_parts")
    case = tiny_case()
    with spans.Tracer() as tracer:
        qp.gradient(case.sys, case.params, case.target, W.OBJECTIVE)
    assert tracer.missing == ["objective.objective_parts"]
    got = layers.layer_metrics(tracer.spans, tracer.missing,
                               {label: (1.0, 1.0) for label in layers.MATRIX_LABELS}, None)
    for name in ("objective.objective_parts.calls", "objective.objective_parts.self_s",
                 "optimize.forward_per_gradient", "optimize.accept_ratio"):
        assert got[name] is None
    assert got["objective.value_and_gradient.calls"] == 1


def test_case_check_fires_on_corrupted_outputs():
    [good] = W.time_cases([tiny_case(n_forward=1, n_gradient=1)])
    checked = W.Checked()
    W.check_cases([good], np.random.default_rng(0), checked)
    assert checked.ops == 2 and not checked.failures

    nan_value = W.CaseTiming(good.case, [0.0], [math.nan], [0.0], good.gradients)
    scaled = W.CaseTiming(good.case, [0.0], good.values, [0.0], [good.gradients[0] * 1.001])
    nan_grad = W.CaseTiming(good.case, [0.0], good.values, [0.0], [good.gradients[0] * np.nan])
    for bad in (nan_value, scaled, nan_grad):
        checked = W.Checked()
        W.check_cases([bad], np.random.default_rng(0), checked)
        assert len(checked.failures) == 1


def test_ipr_check_fires_on_corrupted_outputs():
    wl = W.IprMultistart(1)
    failed = IPRResult(None, None, 0.5)
    zero_pulse = IPRResult(30.0, qp.default_params(wl.sys, 30.0).alpha, 0.9995)
    result = MultiRunResult([failed, zero_pulse], [], 30.0, 30.0, 30.0, 0.0, 0.9995)
    checked = W.Checked()
    wl.check_outputs([result], checked)
    assert checked.ops == 2
    assert len(checked.failures) == 2


def test_cnot_check_fires_on_corrupted_outputs():
    wl = W.CnotBudget(1)
    alpha = wl.params0.alpha
    default_steps = W.default_steps_per_ns(wl.sys)
    true_infid = W.infidelity(wl.sys, wl.target, wl.params0, default_steps)
    honest = OptResult(alpha, 1.0 - true_infid)
    checked = W.Checked()
    wl.check_outputs([honest], checked)
    assert checked.ops == 1 and not checked.failures

    outputs = [OptimizerAbort("objective became non-finite"),
               OptResult(alpha * np.nan, math.nan),
               OptResult(alpha, 1.0)]  # claims a perfect gate for a near-zero pulse
    checked = W.Checked()
    wl.check_outputs(outputs, checked)
    assert checked.ops == 3
    assert len(checked.failures) == 3


def test_same_seed_gives_same_inputs():
    def pulses(wl):
        if isinstance(wl, W.CnotBudget):
            return [wl.params0.alpha]
        return [c.params.alpha for c in wl.cases]

    for name in ("opt_cnot_budget", "eval_matrix"):
        a, b, other = W.build(name, 7), W.build(name, 7), W.build(name, 8)
        assert all(np.array_equal(x, y) for x, y in zip(pulses(a), pulses(b)))
        assert not any(np.array_equal(x, y) for x, y in zip(pulses(a), pulses(other)))
    assert W.build("ipr_h2_multistart", 7).config == W.build("ipr_h2_multistart", 8).config
