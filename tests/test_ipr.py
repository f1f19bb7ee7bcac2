import dataclasses
import json
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import quditpulse.ipr as ipr_mod
from quditpulse.dynamics import resolutions
from quditpulse.ipr import (
    IPRConfig,
    ipr_run,
    multi_run,
    nearest_power_of_two_step,
    standard_optimizer,
    threshold_mock_optimizer,
)
from quditpulse.model import gate, transmon_system
from quditpulse.objective import ObjectiveConfig, forward
from quditpulse.optimize import OptimizerAbort, OptResult
from quditpulse.pulse import default_params, random_guess


@pytest.fixture(scope="module")
def h4_setup():
    sys = transmon_system(num_qudits=1, d=4, guard=2)
    return sys, gate("H_d", 4)


def _fidelity_mock(fid_of_t):
    """Mock optimizer whose reported fidelity is a pure function of duration."""

    def run(sys, params, target):
        fid = fid_of_t(params.T)
        return OptResult(
            alpha_final=params.alpha.copy(),
            fidelity=fid,
            iterations=1,
            reason="converged" if fid >= 0.999 else "max_iter",
        )

    return run


class TestStateMachine:
    def test_walk_determinism(self, h4_setup):
        sys, target = h4_setup
        cfg = IPRConfig(T_start=70.0, step=8.0, seed=7)
        r1 = ipr_run(sys, target, cfg, threshold_mock_optimizer(76.0))
        r2 = ipr_run(sys, target, cfg, threshold_mock_optimizer(76.0))
        assert [dataclasses.astuple(a) for a in r1.records] == [
            dataclasses.astuple(b) for b in r2.records
        ]

    def test_immediate_success_walks_down(self, h4_setup):
        sys, target = h4_setup
        cfg = IPRConfig(T_start=40.0, step=8.0, seed=1)
        res = ipr_run(sys, target, cfg, threshold_mock_optimizer(40.0))
        assert res.records[0].success
        assert res.T_best == 40.0
        # the neighbor 1 ns below was attempted and failed
        assert any(r.T == 39.0 and not r.success for r in res.records)

    def test_duration_changes_by_step(self, h4_setup):
        sys, target = h4_setup
        cfg = IPRConfig(T_start=50.0, step=16.0, seed=3)
        res = ipr_run(sys, target, cfg, threshold_mock_optimizer(77.0))
        recs = res.records
        for prev, cur in zip(recs, recs[1:]):
            if cur.seed_kind == "random":
                continue  # restart, not a stepped move
            assert abs(cur.T - prev.T) == pytest.approx(cur.step_at_attempt)

    def test_step_never_increases_after_success(self, h4_setup):
        sys, target = h4_setup
        cfg = IPRConfig(T_start=11.0, step=8.0, seed=4)
        res = ipr_run(sys, target, cfg, threshold_mock_optimizer(33.0))
        seen_success = False
        last_step = None
        for r in res.records:
            if seen_success:
                assert r.step_at_attempt <= last_step
            seen_success = seen_success or r.success
            last_step = r.step_at_attempt

    def test_seed_kind_accounting(self, h4_setup):
        sys, target = h4_setup
        cfg = IPRConfig(T_start=30.0, step=8.0, seed=5)
        res = ipr_run(sys, target, cfg, threshold_mock_optimizer(41.0))
        recs = res.records
        assert recs[0].seed_kind == "random"
        best_so_far = None
        for prev, cur in zip(recs, recs[1:]):
            if prev.success:
                best_so_far = prev.T if best_so_far is None else min(best_so_far, prev.T)
            if cur.seed_kind == "extended":
                assert best_so_far is None  # extension only before any success
                assert cur.T > prev.T
            elif cur.seed_kind == "truncated":
                assert best_so_far is not None
                assert cur.T < best_so_far
            else:
                assert cur.seed_kind == "random"

    def test_restart_guesses_are_successive_draws_of_one_rng(self, h4_setup, monkeypatch):
        sys, target = h4_setup
        monkeypatch.setattr(ipr_mod, "MAX_RESTARTS", 3)
        cfg = IPRConfig(T_start=30.0, step=4.0, guess_scale=0.2, seed=11)
        starts = []
        decreasing = _fidelity_mock(lambda t: 0.9 - 0.001 * t)

        def recording(sys_, params, target_):
            starts.append(params.alpha.copy())
            return decreasing(sys_, params, target_)

        res = ipr_run(sys, target, cfg, recording)
        assert res.restarts_used == 3
        rng = np.random.default_rng(cfg.seed)
        fresh = [(start, r.T) for start, r in zip(starts, res.records) if r.seed_kind == "random"]
        assert len(fresh) == 4
        for start, T in fresh:
            expected = random_guess(default_params(sys, T), cfg.guess_scale, rng)
            assert np.array_equal(start, expected)
        assert not np.array_equal(fresh[0][0], fresh[1][0])

    def test_granularity_floor(self, h4_setup):
        sys, target = h4_setup
        cfg = IPRConfig(T_start=3.0, step=2.0, seed=9)
        res = ipr_run(sys, target, cfg, threshold_mock_optimizer(1.0))
        assert res.succeeded
        assert res.T_best == 1.0
        assert min(r.T for r in res.records) >= 1.0

    def test_fractional_inputs_give_whole_ns_durations(self, h4_setup):
        sys, target = h4_setup
        cfg = IPRConfig(T_start=14.4, step=2.5, seed=10)
        res = ipr_run(sys, target, cfg, threshold_mock_optimizer(10.3))
        assert res.succeeded
        assert res.T_best == 11.0
        assert res.records[0].T == 14.0 and res.records[0].step_at_attempt == 3.0
        assert all(r.T >= 1.0 and r.T == int(r.T) for r in res.records)
        assert all(r.step_at_attempt >= 1.0 and r.step_at_attempt == int(r.step_at_attempt)
                   for r in res.records)

    def test_restart_budget(self, h4_setup):
        sys, target = h4_setup
        cfg = IPRConfig(T_start=30.0, step=4.0, seed=8)
        res = ipr_run(sys, target, cfg, _fidelity_mock(lambda t: 0.9 - 0.001 * t))
        assert not res.succeeded
        assert res.restarts_used == ipr_mod.MAX_RESTARTS == 5
        assert [r.seed_kind for r in res.records] == ["random", "extended"] * 6
        # every restart returns to the best-fidelity duration
        assert [r.T for r in res.records if r.seed_kind == "random"] == [30.0] * 6

    def test_attempt_budget(self, h4_setup):
        sys, target = h4_setup
        cfg = IPRConfig(T_start=20.0, step=4.0, seed=6)
        # fidelity strictly increasing in T but bounded far below the target
        res = ipr_run(sys, target, cfg, _fidelity_mock(lambda t: 0.5 * t / (t + 1)))
        assert len(res.records) == ipr_mod.MAX_ATTEMPTS == 200
        assert not res.succeeded and res.restarts_used == 0
        assert res.T_best is None
        assert all(not r.success for r in res.records)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IPRConfig(T_start=0.0)
        with pytest.raises(ValueError, match="1 ns"):
            IPRConfig(T_start=10.0, step=0.5)
        assert [f.name for f in dataclasses.fields(IPRConfig)] == [
            "T_start", "step", "guess_scale", "error_threshold", "seed"]

    @pytest.mark.parametrize("fields", [
        {"error_threshold": 5.0},
        {"error_threshold": 0.0},
        {"error_threshold": 1.0},
        {"error_threshold": float("nan")},
        {"T_start": float("inf")},
        {"T_start": float("nan")},
        {"step": float("inf")},
        {"step": float("nan")},
    ])
    def test_config_rejects_out_of_range_and_non_finite(self, fields):
        with pytest.raises(ValueError):
            IPRConfig(**{"T_start": 10.0, **fields})

    def test_default_step_rule(self):
        assert nearest_power_of_two_step(70.0) == 8.0
        assert nearest_power_of_two_step(50.0) == 4.0
        assert nearest_power_of_two_step(160.0) == 16.0
        assert nearest_power_of_two_step(5.0) == 1.0
        # tie between 4 and 8 resolves upward
        assert nearest_power_of_two_step(60.0) == 8.0


class TestMultiRun:
    def test_single_run_summary(self, h4_setup):
        sys, target = h4_setup
        base = IPRConfig(T_start=50.0, seed=11)
        mr = multi_run(sys, target, base, 1, optimizer=threshold_mock_optimizer(47.0))
        assert len(mr.results) == 1
        assert mr.t_min == mr.results[0].T_best
        assert mr.t_mean == mr.results[0].T_best
        assert mr.t_std == 0.0

    def test_identical_seeds_identical_results(self, h4_setup):
        sys, target = h4_setup
        base = IPRConfig(T_start=60.0, seed=12)
        opt = threshold_mock_optimizer(55.0)
        m1 = multi_run(sys, target, base, 4, optimizer=opt)
        m2 = multi_run(sys, target, base, 4, optimizer=opt)
        assert [r.T_best for r in m1.results] == [r.T_best for r in m2.results]
        assert [c.T_start for c in m1.configs] == [c.T_start for c in m2.configs]

    def test_threshold_min_equals_threshold(self, h4_setup):
        sys, target = h4_setup
        base = IPRConfig(T_start=90.0, seed=13)
        mr = multi_run(sys, target, base, 6, optimizer=threshold_mock_optimizer(77.0))
        assert all(r.succeeded for r in mr.results)
        assert mr.t_min == 77.0
        assert mr.t_std <= 1.0

    def test_sampled_starts_within_window(self, h4_setup):
        sys, target = h4_setup
        base = IPRConfig(T_start=100.0, seed=14)
        mr = multi_run(
            sys, target, base, 8, t_ref=100.0,
            optimizer=threshold_mock_optimizer(90.0),
        )
        assert mr.pilot is None
        for cfg in mr.configs:
            assert 79.0 <= cfg.T_start <= 121.0

    def test_requires_runs(self, h4_setup):
        sys, target = h4_setup
        with pytest.raises(ValueError):
            multi_run(sys, target, IPRConfig(T_start=10.0), 0,
                      optimizer=threshold_mock_optimizer(10.0))


SRC = Path(ipr_mod.__file__).resolve().parents[1]
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork start method")
needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="no /proc")


def _plain(mr) -> str:
    """A MultiRunResult as text, every float and array value included."""
    return json.dumps(dataclasses.asdict(mr), default=lambda a: a.tolist())


def _proc_stat(pid) -> tuple[str, int] | None:
    """(state, parent pid) of a process, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
    except (FileNotFoundError, ProcessLookupError):
        return None
    return state, int(ppid)


def _running(pid) -> bool:
    """A zombie waiting for its reaper has exited, so it counts as gone."""
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


def _running_children() -> list[int]:
    stats = {int(p): _proc_stat(p) for p in os.listdir("/proc") if p.isdigit()}
    return [pid for pid, st in stats.items() if st and st[0] != "Z" and st[1] == os.getpid()]


def _pid_mock(t_threshold: float):
    """threshold_mock_optimizer that reports the process it ran in as its reason."""
    mock = threshold_mock_optimizer(t_threshold)

    def run(sys, params, target):
        return dataclasses.replace(mock(sys, params, target), reason=f"pid {os.getpid()}")

    return run


# Run by test_workers_exit_when_their_parent_is_killed in a child interpreter:
# each worker appends its PID to the file in argv[1], then hangs in its search.
HANGING_MULTI_RUN = """
import os, sys, time
from quditpulse.ipr import IPRConfig, multi_run
from quditpulse.model import gate, transmon_system

def hang(sys_, params, target):
    with open(sys.argv[1], "a") as fh:
        fh.write(f"{os.getpid()}\\n")
    time.sleep(120)

multi_run(transmon_system(num_qudits=1, d=2, guard=2), gate("X_d", 2),
          IPRConfig(T_start=30.0), 2, t_ref=30.0, optimizer=hang)
"""


class TestWorkerPool:
    def test_worker_count(self, monkeypatch):
        monkeypatch.setenv("QUDITPULSE_THREADS", "100000")
        assert ipr_mod._worker_count(3) == 3
        monkeypatch.setenv("QUDITPULSE_THREADS", "2")
        assert ipr_mod._worker_count(10) == 2
        monkeypatch.delenv("QUDITPULSE_THREADS")
        assert 1 <= ipr_mod._worker_count(3) <= 3
        assert ipr_mod._worker_count(1) == 1

    @needs_fork
    def test_worker_count_does_not_change_mock_result(self, h4_setup, monkeypatch):
        sys, target = h4_setup
        base = IPRConfig(T_start=90.0, seed=21)
        runs = []
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("QUDITPULSE_THREADS", workers)
            runs.append(_plain(multi_run(sys, target, base, 6,
                                         optimizer=threshold_mock_optimizer(77.0))))
        assert runs[0] == runs[1] == runs[2]

    @needs_fork
    def test_worker_count_does_not_change_real_search(self, monkeypatch):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        base = IPRConfig(T_start=30.0, guess_scale=0.01, seed=7)
        optimizer = standard_optimizer(ObjectiveConfig(), max_iter=500)
        runs = []
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("QUDITPULSE_THREADS", workers)
            mr = multi_run(sys, gate("H_d", 2), base, 3, t_ref=27.0, optimizer=optimizer)
            runs.append(_plain(mr))
        assert mr.t_min is not None
        assert runs[0] == runs[1] == runs[2]

    @needs_fork
    def test_closure_optimizer_runs_in_workers(self, h4_setup, monkeypatch):
        sys, target = h4_setup
        base = IPRConfig(T_start=90.0, seed=22)
        optimizer = _pid_mock(77.0)
        with pytest.raises(Exception):
            pickle.dumps(optimizer)
        monkeypatch.setenv("QUDITPULSE_THREADS", "1")
        serial = multi_run(sys, target, base, 4, optimizer=optimizer)
        monkeypatch.setenv("QUDITPULSE_THREADS", "2")
        pooled = multi_run(sys, target, base, 4, optimizer=optimizer)

        def pids(mr):
            return {r.reason for res in mr.results for r in res.records}

        assert pids(serial) == {f"pid {os.getpid()}"}
        assert pids(pooled) and f"pid {os.getpid()}" not in pids(pooled)
        assert [r.T_best for r in serial.results] == [r.T_best for r in pooled.results]
        assert [c.seed for c in serial.configs] == [c.seed for c in pooled.configs]
        assert multiprocessing.active_children() == []

    @needs_fork
    @needs_proc
    def test_searches_run_here_without_fork(self, h4_setup, monkeypatch):
        # The only path on spawn-only platforms: with more than one worker
        # asked for and no os.fork, the searches run serially in this process.
        sys, target = h4_setup
        base = IPRConfig(T_start=90.0, seed=22)
        optimizer = _pid_mock(77.0)
        monkeypatch.setenv("QUDITPULSE_THREADS", "2")
        pooled = multi_run(sys, target, base, 4, optimizer=optimizer)
        monkeypatch.delattr(os, "fork")
        here = multi_run(sys, target, base, 4, optimizer=optimizer)

        def reasons(mr):
            return {r.reason for res in mr.results for r in res.records}

        def without_pids(mr):
            return re.sub(r'"pid \d+"', '"pid"', _plain(mr))

        assert reasons(here) == {f"pid {os.getpid()}"}
        assert f"pid {os.getpid()}" not in reasons(pooled)
        assert without_pids(here) == without_pids(pooled)
        assert multiprocessing.active_children() == []
        assert _running_children() == []

    @needs_fork
    def test_search_error_propagates_and_joins_workers(self, h4_setup, monkeypatch):
        sys, target = h4_setup
        base = IPRConfig(T_start=100.0, seed=23)
        mock = threshold_mock_optimizer(90.0)
        configs = multi_run(sys, target, base, 4, t_ref=100.0, optimizer=mock).configs
        t_bad = max(c.T_start for c in configs)  # only the search starting there visits it
        assert t_bad > 100.0

        def aborting(sys_, params, target_):
            if params.T == t_bad:
                raise OptimizerAbort("objective turned non-finite")
            return mock(sys_, params, target_)

        monkeypatch.setenv("QUDITPULSE_THREADS", "2")
        with pytest.raises(OptimizerAbort, match="non-finite"):
            multi_run(sys, target, base, 4, t_ref=100.0, optimizer=aborting)
        assert multiprocessing.active_children() == []

    @needs_fork
    @needs_proc
    def test_no_child_process_outlives_the_call(self, h4_setup, monkeypatch):
        sys, target = h4_setup
        monkeypatch.setenv("QUDITPULSE_THREADS", "2")
        multi_run(sys, target, IPRConfig(T_start=90.0, seed=24), 4,
                  optimizer=threshold_mock_optimizer(77.0))
        assert multiprocessing.active_children() == []
        assert _running_children() == []

    @needs_fork
    @needs_proc
    def test_workers_exit_when_their_parent_is_killed(self, tmp_path):
        pid_file = tmp_path / "workers.txt"
        env = {**os.environ, "QUDITPULSE_THREADS": "2",
               "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC),
                                                           os.environ.get("PYTHONPATH")]))}
        parent = subprocess.Popen([sys.executable, "-c", HANGING_MULTI_RUN, str(pid_file)],
                                  env=env)
        workers: set[int] = set()
        try:
            deadline = time.monotonic() + 30.0
            while len(workers) < 2 and time.monotonic() < deadline and parent.poll() is None:
                time.sleep(0.05)
                if pid_file.exists():
                    workers = {int(line) for line in pid_file.read_text().split()}
            assert len(workers) == 2 and parent.pid not in workers
            parent.kill()
            parent.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, workers))
        finally:
            parent.kill()
            parent.wait(timeout=10)
            for pid in workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_import_does_not_load_multiprocessing(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        code = "import sys, quditpulse; print('multiprocessing' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "False"


TAG = 2  # a coefficient no boundary spline pins, for one or two qudits


class _FakeSearch:
    """Stands in for ``minimize`` and the certificate's propagation.

    ``minimize`` returns the queued results in order and records the start
    alpha and resolution of each call; the infidelity of a pulse is looked
    up by (``alpha[TAG]``, steps per ns), the coefficient that tags a fake
    result's pulse.
    """

    def __init__(self, monkeypatch, results, infidelities):
        self.results = list(results)
        self.infidelities = infidelities
        self.minimize_calls = []
        self.propagations = []
        monkeypatch.setattr(ipr_mod, "minimize", self.minimize)
        monkeypatch.setattr(ipr_mod, "_infidelity", self.infidelity)

    def minimize(self, sys, params, target, cfg, max_iter, steps_per_ns):
        self.minimize_calls.append((params.alpha.copy(), steps_per_ns))
        return self.results.pop(0)

    def infidelity(self, sys, params, target, steps_per_ns):
        self.propagations.append(steps_per_ns)
        return self.infidelities[(float(params.alpha[TAG]), steps_per_ns)]


def _converged(alpha0: float, size: int, n_forward: int, n_gradient: int) -> OptResult:
    alpha = np.zeros(size)
    alpha[TAG] = alpha0
    return OptResult(alpha, 1.0, [], n_gradient - 1, "converged", n_forward, n_gradient)


class TestCertificate:
    @pytest.fixture()
    def x2(self):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        return sys, default_params(sys, 20.0), gate("X_d", 2)

    @pytest.mark.parametrize("fields", [{"max_iter": 0}, {"steps_per_ns": 0}])
    def test_rejects_a_budget_or_resolution_below_one(self, fields):
        with pytest.raises(ValueError, match=next(iter(fields))):
            standard_optimizer(**fields)

    def test_resolutions(self, x2):
        # The rule at the objective's threshold; steps_per_ns overrides the
        # claim, and the search is the rule's or the override, the smaller.
        sys = x2[0]
        search, claim = resolutions(sys, 1e-3)
        assert standard_optimizer().resolutions(sys) == (search, claim)
        tight = standard_optimizer(ObjectiveConfig(error_threshold=1e-4))
        assert tight.resolutions(sys) == resolutions(sys, 1e-4)
        assert standard_optimizer(steps_per_ns=claim + 7).resolutions(sys) == (search, claim + 7)
        below = standard_optimizer(steps_per_ns=search - 1)
        assert below.resolutions(sys) == (search - 1, search - 1)
        assert standard_optimizer(steps_per_ns=1).resolutions(sys) == (1, 1)

    @pytest.mark.parametrize("num_qudits, gate_name", [(1, "X_d"), (2, "CNOT")])
    def test_default_resolutions(self, monkeypatch, num_qudits, gate_name):
        sys = transmon_system(num_qudits=num_qudits, d=2, guard=2)
        search, claim = resolutions(sys, 1e-3)
        assert search < claim
        params = default_params(sys, 20.0)
        fake = _FakeSearch(monkeypatch, [_converged(0.01, params.alpha.size, 5, 2)],
                           {(0.01, claim): 4e-4, (0.01, 2 * claim): 5e-4})
        result = standard_optimizer()(sys, params, gate(gate_name, 2))
        assert [res for _, res in fake.minimize_calls] == [search]
        assert fake.propagations == [claim, 2 * claim]
        assert result.reason == "converged"
        assert result.fidelity == 1.0 - 5e-4

    def test_explicit_resolution_of_one_runs_no_coarse_pass(self, monkeypatch, x2):
        sys, params, target = x2
        fake = _FakeSearch(monkeypatch, [_converged(0.01, params.alpha.size, 5, 2)],
                           {(0.01, 1): 2e-3})
        result = standard_optimizer(steps_per_ns=1)(sys, params, target)
        # The search already ran at the claim resolution: no warm start.
        assert [res for _, res in fake.minimize_calls] == [1]
        assert fake.propagations == [1]
        assert result.reason == "uncertified"
        assert result.fidelity == 1.0 - 2e-3

    def test_warm_start_at_claim_resolution(self, monkeypatch, x2):
        sys, params, target = x2
        coarse = dataclasses.replace(_converged(0.01, params.alpha.size, 7, 3),
                                     history=[(1, 0.3, 0.2, 0.0, 1.0), (2, 0.1, 0.05, 0.0, 0.5)])
        fine = dataclasses.replace(_converged(0.02, params.alpha.size, 4, 2),
                                   history=[(1, 0.01, 6e-4, 0.0, 1.0)])
        search, claim = resolutions(sys, 1e-3)
        fake = _FakeSearch(monkeypatch, [coarse, fine], {
            (0.01, claim): 2e-3,  # converged on the coarse grid, misses on the claim grid
            (0.02, claim): 6e-4,
            (0.02, 2 * claim): 7e-4,
        })
        result = standard_optimizer()(sys, params, target)
        (alpha_coarse, res_coarse), (alpha_warm, res_warm) = fake.minimize_calls
        assert res_coarse == search and np.array_equal(alpha_coarse, params.alpha)
        assert res_warm == claim and np.array_equal(alpha_warm, coarse.alpha_final)
        assert fake.propagations == [claim, claim, 2 * claim]
        assert result.n_forward == 11 and result.n_gradient == 5
        assert result.history == coarse.history + fine.history
        assert result.iterations == coarse.iterations + fine.iterations == 3
        assert np.array_equal(result.alpha_final, fine.alpha_final)
        assert result.reason == "converged"
        assert result.fidelity == 1.0 - 7e-4

    def test_pass_at_claim_fail_at_double_is_no_success(self, monkeypatch, x2):
        sys, params, target = x2
        monkeypatch.setattr(ipr_mod, "MAX_ATTEMPTS", 1)
        search, claim = resolutions(sys, 1e-3)
        fake = _FakeSearch(monkeypatch, [_converged(0.01, params.alpha.size, 5, 2)],
                           {(0.01, claim): 5e-4, (0.01, 2 * claim): 2e-3})
        cfg = IPRConfig(T_start=20.0, step=4.0)
        res = ipr_run(sys, target, cfg, standard_optimizer())
        # Passing at the claim resolution, the pulse needs no warm start there.
        assert [r for _, r in fake.minimize_calls] == [search]
        (record,) = res.records
        assert not record.success and not res.succeeded
        assert record.reason == "uncertified"
        assert record.fidelity == 1.0 - 2e-3

    def test_warm_start_converging_but_failing_double_is_uncertified(self, monkeypatch, x2):
        sys, params, target = x2
        size = params.alpha.size
        claim = resolutions(sys, 1e-3)[1]
        _FakeSearch(monkeypatch, [_converged(0.01, size, 5, 2), _converged(0.02, size, 1, 1)],
                    {(0.01, claim): 2e-3, (0.02, claim): 5e-4, (0.02, 2 * claim): 3e-3})
        result = standard_optimizer()(sys, params, target)
        assert result.reason == "uncertified"
        assert result.fidelity == 1.0 - 3e-3

    def test_threshold_is_a_failure_in_ipr_run_and_certificate(self, monkeypatch, x2):
        sys, params, target = x2
        threshold = 2.0**-10  # 1 - (1 - threshold) == threshold exactly
        monkeypatch.setattr(ipr_mod, "MAX_ATTEMPTS", 3)
        cfg = IPRConfig(T_start=20.0, step=4.0, error_threshold=threshold)
        res = ipr_run(sys, target, cfg, _fidelity_mock(lambda t: 1.0 - threshold))
        assert not res.succeeded and not any(r.success for r in res.records)

        _FakeSearch(monkeypatch, [_converged(0.01, params.alpha.size, 5, 2)],
                    {(0.01, 1): threshold})
        result = standard_optimizer(ObjectiveConfig(error_threshold=threshold),
                                    steps_per_ns=1)(sys, params, target)
        assert result.reason == "uncertified"
        monkeypatch.setattr(ipr_mod, "MAX_ATTEMPTS", 1)
        (record,) = ipr_run(sys, target, cfg, lambda *_: result).records
        assert not record.success

    def test_pickled_optimizer_gives_the_same_search(self, monkeypatch):
        sys = transmon_system(num_qudits=1, d=2, guard=2)
        target = gate("X_d", 2)
        monkeypatch.setattr(ipr_mod, "MAX_ATTEMPTS", 2)
        cfg = IPRConfig(T_start=24.0, step=4.0, seed=5)
        opt = standard_optimizer(ObjectiveConfig(), max_iter=40)
        copy = pickle.loads(pickle.dumps(opt))
        assert copy == opt
        r1 = ipr_run(sys, target, cfg, opt)
        r2 = ipr_run(sys, target, cfg, copy)
        assert [dataclasses.astuple(a) for a in r1.records] == [
            dataclasses.astuple(b) for b in r2.records
        ]
        assert r1.T_best == r2.T_best
        if r1.succeeded:
            assert np.array_equal(r1.alpha_best, r2.alpha_best)


def test_criterion_7_pilot_walk_and_evaluation_budget():
    # The pilot search of acceptance criterion 7 with the real optimizer.  Its
    # walk pins the search path; the forward budget fails when line searches
    # spend their evaluations on roundoff-sized steps.  ``n_forward`` counts
    # the optimizer's forward passes only; each attempt's certificate adds one
    # or two propagations on top.
    sys = transmon_system(num_qudits=1, d=2, guard=2)
    target = gate("H_d", 2)
    cfg = IPRConfig(T_start=50.0, guess_scale=0.01, seed=1234)
    optimizer = standard_optimizer(ObjectiveConfig(), max_iter=500)
    pulses = []

    def recording(sys, params, target):
        result = optimizer(sys, params, target)
        pulses.append(params.with_alpha(result.alpha_final))
        return result

    res = ipr_run(sys, target, cfg, recording)
    walk = [(r.T, r.success) for r in res.records]
    assert walk == [(T, True) for T in (50.0, 46.0, 42.0, 38.0, 34.0, 30.0, 26.0)] + [
        (T, False) for T in (22.0, 24.0, 25.0)
    ]
    assert res.T_best == 26.0
    assert all(r.reason for r in res.records)
    assert all(r.n_gradient >= 1 for r in res.records)
    assert sum(r.n_forward for r in res.records) <= 120
    # Every success is certified at the claim resolution and at twice it.
    for record, pulse in zip(res.records, pulses):
        if record.success:
            claim = resolutions(sys, 1e-3)[1]
            for steps_per_ns in (claim, 2 * claim):
                cache = forward(sys, pulse, target, ObjectiveConfig(), steps_per_ns)
                assert cache.infidelity < 1e-3
