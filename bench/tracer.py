"""In-memory spans for the traced run.

A span records a name, start and end (``perf_counter`` seconds), the id
of the span that was open when it started, and free-form attributes.
Spans stay in memory and are written out once, after the run.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Iterable, Optional


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "attrs", "failed")

    def __init__(self, sid: int, name: str, parent: Optional[int], attrs: dict):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0
        self.failed = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    """Context manager for one span; an exception marks it failed and
    propagates."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.tracer._stack.append(self.span.sid)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.end = time.perf_counter()
        self.span.failed = exc_type is not None
        self.tracer._stack.pop()
        return False


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str, **attrs) -> _Open:
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, parent, attrs)
        self.spans.append(record)
        return _Open(self, record)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.sid]

    def self_time(self, span: Span) -> float:
        """Duration minus the time covered by direct children (which never
        overlap: the replay is single-threaded)."""
        return span.duration - sum(c.duration for c in self.children(span))

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for s in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "name": s.name,
                            "parent": s.parent,
                            "start": s.start,
                            "end": s.end,
                            "failed": s.failed,
                            "attrs": s.attrs,
                        }
                    )
                    + "\n"
                )


def busy(spans: Iterable[Span]) -> float:
    return sum(s.duration for s in spans)


def p50_ms(spans: Iterable[Span]) -> float:
    """Median duration in ms; 0.0 when the layer had no calls."""
    values = [s.duration for s in spans]
    return statistics.median(values) * 1000 if values else 0.0


def tail(spans: Iterable[Span]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (quantile, ms) by nearest rank; the median for fewer than 20 samples,
    where no percentile above it has ten samples beyond."""
    values = sorted(s.duration for s in spans)
    if len(values) < 20:
        return 0.5, (statistics.median(values) * 1000 if values else 0.0)
    n = len(values)
    percent = 100 * (n - 10) // n
    rank = -(-percent * n // 100)  # nearest rank: ceil(percent * n / 100)
    return percent / 100, values[rank - 1] * 1000
