"""In-memory spans around the benchmark's own calls into cplab.

A span records a name, a start, an end, the span that caused it and the
trace (one game or one criterion) it belongs to. Spans stay in memory
until the run ends; `NullTracer` gives the untraced runs the same call
sites at the cost of one no-op context manager per span.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterator


@dataclass
class Span:
    id: int
    parent: int | None
    trace: str
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, trace: str | None = None) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if trace is None:
            if parent is None:
                raise ValueError(f"root span {name!r} needs a trace id")
            trace = parent.trace
        s = Span(len(self.spans), None if parent is None else parent.id, trace, name, 0.0)
        self.spans.append(s)
        self._stack.append(s)
        s.start = self.clock()
        try:
            yield s
        finally:
            s.end = self.clock()
            self._stack.pop()

    def export(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class NullTracer:
    @contextlib.contextmanager
    def span(self, name: str, trace: str | None = None) -> Iterator[None]:
        yield None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out
