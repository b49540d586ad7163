"""Spans recorded around calls into highline's layers, kept in memory.

A span has a name, a start and an end (``time.perf_counter_ns``) and the id
of the span that was open when it started. A layer's self time is its span's
duration minus its child spans' durations.
"""

from __future__ import annotations

import functools
import time
import types
from contextlib import contextmanager


class Tracer:
    """Collects spans from wrapped module attributes and explicit blocks."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.results: dict[str, object] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"id": span_id, "name": name, "start": time.perf_counter_ns(), "end": None,
                  "parent": parent}
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            record["end"] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, module, name: str) -> None:
        """Replace ``module.name`` with a function that records a span per call
        and keeps the last return value in ``results[name]``. A target the
        module no longer has is listed in ``missing`` instead."""
        target = getattr(module, name, None)
        if not callable(target):
            self.missing.append(f"{module.__name__}.{name}")
            return

        @functools.wraps(target)
        def traced(*args, **kwargs):
            with self.span(name):
                result = target(*args, **kwargs)
            self.results[name] = result
            return result

        setattr(module, name, traced)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per span name, summed over spans of that name.

    The tracer follows one call stack, so sibling spans never overlap and a
    span's self time is its duration minus its children's durations.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + own[s["id"]] / 1e9
    return out


def span_cost_s(calls: int = 10_000) -> float:
    """Seconds one call of a wrapped no-op takes: what the tracer adds per span."""
    probe = types.SimpleNamespace(__name__="probe", noop=lambda: None)
    Tracer().wrap(probe, "noop")
    start = time.perf_counter()
    for _ in range(calls):
        probe.noop()
    return (time.perf_counter() - start) / calls


def total_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of span duration per span name, summed over spans of that name."""
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) / 1e9
    return out
