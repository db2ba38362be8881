"""In-memory span tracer that wraps mtlearn functions from outside.

mtlearn has no timing hooks of its own, so the benchmark replaces module
attributes (``pipeline._run_cell``, ``RunLedger.save``, ...) with wrappers
for the duration of a traced pass and restores them afterwards. Callers
inside mtlearn look these names up at call time (``trainer.decode(...)``,
a module-global ``_run_cell(...)``), so they reach the wrappers.

Each call records one span: id, name, parent span id, thread id, start and
end (``time.perf_counter``) and CPU time of the calling thread
(``time.thread_time``). The parent is the innermost open span of the same
thread; a span opened on a pool thread with none open there is a child of
the innermost span open on the thread that created the tracer, the one
running the pass. Spans stay in memory until ``write`` dumps them. A hook
whose target no longer exists is listed in ``missing`` instead of raising,
so a renamed function degrades the trace rather than the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import threading
import time
from collections.abc import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, float, float, float]] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner_stack = self._stack()
        self._counter_lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _owner_parent(self) -> int:
        try:
            return self._owner_stack[-1]
        except IndexError:  # nothing open, or popped since the thread looked
            return -1

    def wrap(self, name: str, fn: Callable,
             after: Callable[..., int] | None = None) -> Callable:
        """Return ``fn`` wrapped to record a span named ``name``.

        ``after(result, *args, **kwargs)``, when given, returns an amount
        added to the counter ``name + ".bytes"`` after each call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._owner_parent()
            span_id = next(self._ids)
            stack.append(span_id)
            cpu0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu = time.thread_time() - cpu0
                stack.pop()
                self.spans.append(
                    (span_id, name, parent, threading.get_ident(), t0, t1, cpu)
                )
            if after is not None:
                amount = after(result, *args, **kwargs)
                with self._counter_lock:
                    key = name + ".bytes"
                    self.counters[key] = self.counters.get(key, 0) + amount
            return result

        return traced

    def hook(self, target: str, after: Callable[..., int] | None = None) -> None:
        """Wrap ``mtlearn.<module>.<attr>[.<attr>...]`` in place.

        ``target`` is ``"<module>.<qualname>"``, for example
        ``"pipeline.RunLedger.load"``. Classmethods and staticmethods keep
        their kind.
        """
        module_name, _, qualname = target.partition(".")
        try:
            owner = importlib.import_module(f"mtlearn.{module_name}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError, ValueError):
            self.missing.append(target)
            return
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(target, raw.__func__, after))
        elif callable(raw):
            wrapped = self.wrap(target, raw, after)
        else:
            self.missing.append(target)
            return
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, raw))

    def unhook(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name totals: calls, wall_s, self_s, cpu_s, wait_s.

        Self time is a span's duration minus the part of it that its direct
        children cover; children on two pool threads can overlap, so it is
        the union of their intervals. Wait time is wall minus thread CPU
        time: time spent blocked on the interpreter lock, I/O, children or
        the scheduler.
        """
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, parent, _, t0, t1, _ in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((t0, t1))
        child_time = {span_id: _covered(iv) for span_id, iv in children.items()}
        totals: dict[str, dict[str, float]] = {}
        for span_id, name, _, _, t0, t1, cpu in self.spans:
            entry = totals.setdefault(
                name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "cpu_s": 0.0}
            )
            wall = t1 - t0
            entry["calls"] += 1
            entry["wall_s"] += wall
            entry["self_s"] += wall - child_time.get(span_id, 0.0)
            entry["cpu_s"] += cpu
        for entry in totals.values():
            entry["wait_s"] = max(entry["wall_s"] - entry["cpu_s"], 0.0)
        return totals

    def write(self, path, extra: dict | None = None) -> None:
        """Dump spans, counters and missing hooks as one JSON document."""
        names = sorted({span[1] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        doc = {
            "names": names,
            "fields": ["id", "name", "parent", "thread", "start", "end", "cpu"],
            "spans": [
                [s[0], index[s[1]], s[2], s[3], s[4], s[5], s[6]]
                for s in sorted(self.spans)
            ],
            "counters": self.counters,
            "missing": self.missing,
            **(extra or {}),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = -math.inf
    for t0, t1 in sorted(intervals):
        if t1 > reach:
            total += t1 - max(t0, reach)
            reach = t1
    return total


def span_cost_s(repeats: int = 5, calls: int = 20000) -> float:
    """Median extra seconds one traced call costs over a bare call."""

    def noop() -> None:
        return None

    costs = []
    for _ in range(repeats):
        traced = Tracer().wrap("noop", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - t0 - bare) / calls)
    costs.sort()
    return max(costs[len(costs) // 2], 0.0)
