"""In-memory span tracing and the summary statistics the benchmark reports.

A span records a name, start, end and the span that was open when it began.
Spans stay in memory until the run ends. A span's self time is its duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

# Percentiles tried for the tail, highest first. The tail is the highest one
# that leaves at least TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None


class _Open:
    __slots__ = ("tracer", "name", "span_id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.span_id = tr._next_id
        tr._next_id += 1
        self.parent = tr._stack[-1] if tr._stack else None
        tr._stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        if tr.recording:
            tr.spans.append(Span(self.span_id, self.name, self.start, end, self.parent))
        return False


class Tracer:
    """Records spans opened with `with tracer.span(name):`."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.recording = True
        self._stack: list[int] = []
        self._next_id = 0

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    def write(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.span_id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent}) + "\n")


class _Nothing:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Stand-in for untraced runs: spans cost one method call and record nothing."""

    enabled = False
    recording = False
    _nothing = _Nothing()

    def span(self, name: str) -> _Nothing:
        return self._nothing


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of `intervals`."""
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time in seconds per span id: duration minus the union of the
    children's intervals, clipped to the parent's own interval."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.span_id: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            p = by_id[s.parent]
            children.setdefault(s.parent, []).append((max(s.start, p.start), min(s.end, p.end)))
    return {s.span_id: (s.end - s.start) - _covered(children.get(s.span_id, []))
            for s in spans}


def self_ms_by_name(spans: list[Span]) -> dict[str, list[float]]:
    """Self time of every span in milliseconds, grouped by span name."""
    selfs = self_times(spans)
    out: dict[str, list[float]] = {}
    for s in spans:
        out.setdefault(s.name, []).append(1000.0 * selfs[s.span_id])
    return out


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """(percentile, value, sample count) for the highest ladder percentile
    with at least TAIL_MIN_BEYOND samples above it, or None if there is none.

    The value is the nearest-rank percentile, the order statistic at rank
    ceil(n * p / 100) counted from one, so n - rank samples lie beyond it.
    """
    n = len(samples)
    ordered = sorted(samples)
    for p in TAIL_LADDER:
        rank = math.ceil(round(n * p / 100.0, 6))
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1], n
    return None
