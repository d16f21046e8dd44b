"""In-memory span tracing by wrapping module attributes.

The program under test is not edited. Instead, a ``Tracer`` replaces
attributes that the program looks up at call time (``qmetro.kernels.
kappa_two_phase``, ``qmetro.scenarios.minimize``, ...) with wrappers that
record one span per call: (span id, parent span id, trace id, name, start,
end). Wrappers can also turn each call's arguments and return value into
counters. ``Tracer.restore`` puts every original object back, so code that
runs after a traced section calls the untouched functions again.

Spans stay in a list until the benchmark ends; ``write_csv`` then writes
them out in one go.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    span_id: int
    parent_id: int        # 0 for a root span
    trace_id: int         # the workload pass the span belongs to
    name: str             # "<layer>.<operation>"
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


#: on_call(counters, args, kwargs, result) adds to the tracer's counters
OnCall = Callable[[dict, tuple, dict, object], None]


class Tracer:
    """Records spans and counters for the functions it wraps."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.trace_id = 0
        self._stack: list[int] = []
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[int, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent: int, name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(Span(span_id, parent, self.trace_id, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of code."""
        span_id, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(span_id, parent, name, start)

    def wrap(self, module: str, attr: str, name: str,
             on_call: OnCall | None = None) -> None:
        """Replace ``module.attr`` by a traced wrapper until ``restore``."""
        owner = importlib.import_module(module)
        original = getattr(owner, attr)
        tracer = self
        counters = self.counters

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id, parent = tracer._open()
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span_id, parent, name, start)
            if on_call is not None:
                on_call(counters, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, last wrapped first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(Span._fields)
            out.writerows(self.spans)


def covered_ns(start: int, end: int, intervals) -> int:
    """Length of the part of [start, end] covered by the union of intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if b > start and a < end)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent_id:
            children[s.parent_id].append((s.start_ns, s.end_ns))
    return {s.span_id: s.duration_ns - covered_ns(s.start_ns, s.end_ns,
                                                  children.get(s.span_id, ()))
            for s in spans}


class NameStats(NamedTuple):
    calls: int
    total_ns: int
    self_ns: int


def aggregate(spans: list[Span]) -> dict[str, NameStats]:
    """Per span name: call count, total time and self time."""
    selfs = self_times_ns(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)
    own: dict[str, int] = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.duration_ns
        own[s.name] += selfs[s.span_id]
    return {n: NameStats(calls[n], total[n], own[n]) for n in calls}
