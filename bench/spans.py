"""Outside-in span tracer for the quditpulse benchmark.

The tracer times calls into the library's public functions without touching
the library: it replaces each target function in *every* module namespace
that binds it (the defining module, the modules that imported it by name,
and the package namespace) with a wrapper that records a span, and puts the
originals back on exit.  A span records its name, start, end, parent span,
thread id and run id; spans stay in memory and are written out at the end.

Targets are looked up with ``importlib.import_module``: the package rebinds
``quditpulse.objective`` to the *function* ``objective``, so attribute access
on the package would return the wrong object.  A target that no longer exists
is listed in ``Tracer.missing`` and its metrics read as absent (None), never
as zero.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


def _eigh_info(args, kwargs, result) -> dict:
    shape = args[0].shape
    matrices = 1
    for n in shape[:-2]:
        matrices *= n
    return {"matrices": matrices, "dim": shape[-1]}


def _minimize_info(args, kwargs, result) -> dict:
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def _search_info(args, kwargs, result) -> dict:
    return {
        "attempts": len(result.records),
        "attempts_success": sum(1 for r in result.records if r.success),
    }


@dataclass(frozen=True)
class Target:
    """A function to wrap: metric prefix, defining module and attribute."""

    name: str
    module: str
    attr: str
    info: Callable[[tuple, dict, Any], dict] | None = None
    thread_cpu: bool = False


TARGETS = (
    Target("pulse.eval_controls", "quditpulse.pulse", "eval_controls"),
    Target("pulse.basis_matrix", "quditpulse.pulse", "basis_matrix"),
    Target("pulse.refit", "quditpulse.pulse", "refit"),
    Target("dynamics.eigh", "numpy.linalg", "eigh", info=_eigh_info),
    Target("dynamics.step_unitaries", "quditpulse.dynamics", "step_unitaries"),
    Target("dynamics.propagate_sequence", "quditpulse.dynamics", "propagate_sequence"),
    Target("objective.objective_parts", "quditpulse.objective", "objective_parts"),
    Target("objective.value_and_gradient", "quditpulse.objective", "value_and_gradient"),
    Target("optimize.minimize", "quditpulse.optimize", "minimize", info=_minimize_info),
    Target("ipr.ipr_run", "quditpulse.ipr", "ipr_run", info=_search_info, thread_cpu=True),
    Target("ipr.multi_run", "quditpulse.ipr", "multi_run"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run: int
    thread_cpu: float | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _namespaces(defining_module: str) -> list:
    """The defining module plus every loaded quditpulse module namespace."""
    mods = [importlib.import_module(defining_module)]
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "quditpulse" or name.startswith("quditpulse.")):
            if mod not in mods:
                mods.append(mod)
    return mods


class Tracer:
    """Wraps the targets while active; ``run`` tags the spans of each traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.run = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        self.missing = []
        for target in TARGETS:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.missing.append(target.name)
                continue
            original = getattr(module, target.attr, None)
            if original is None:
                self.missing.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            for ns in _namespaces(target.module):
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            ns, attr, original = self._patched.pop()
            setattr(ns, attr, original)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            cpu0 = time.thread_time() if target.thread_cpu else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = Span(span_id, target.name, start, end, parent,
                        threading.get_ident(), self.run)
            if cpu0 is not None:
                span.thread_cpu = time.thread_time() - cpu0
            if target.info is not None:
                span.info = target.info(args, kwargs, result)
            spans.append(span)
            return result

        return wrapper

    def run_spans(self, run: int) -> list[Span]:
        return [s for s in self.spans if s.run == run]

    def write(self, path) -> None:
        """Write all spans as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "thread": s.thread, "run": s.run,
                    "thread_cpu": s.thread_cpu, **s.info,
                }) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child_time.get(s.id, 0.0) for s in spans}
