"""In-memory span recorder, Chrome-trace export and the small statistics
helpers the benchmark reports with.

Spans are recorded from the benchmark's own files, around the calls into
each layer of the program (outside-in); nothing under ``src/`` is
instrumented.  The driver is single-threaded, so spans form a tree and a
span's *self time* is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import json
import statistics
import time


class Span:
    __slots__ = ("id", "name", "parent", "step", "start", "end")

    def __init__(self, id_: int, name: str, parent: int | None, step: int | None):
        self.id = id_
        self.name = name
        self.parent = parent
        self.step = step
        self.start = 0.0
        self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    """Context manager for one open span (a class, not a generator, to keep
    the per-step cost of a traced run to a few attribute writes)."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.tracer._stack.append(self.span.id)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()


class _Noop:
    def __enter__(self):
        return None

    def __exit__(self, *exc) -> None:
        return None


_NOOP = _Noop()


class Tracer:
    """Records spans while ``enabled``; a disabled tracer hands out one
    shared no-op context, so untraced runs pay a method call and nothing
    else."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str, step: int | None = None):
        if not self.enabled:
            return _NOOP
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, step)
        self.spans.append(span)
        return _Open(self, span)

    def self_times(self) -> dict[int, float]:
        """Span id → duration minus the durations of its direct children."""
        out = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, parent: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == parent.id]

    def write_chrome_trace(self, path: str, process_name: str) -> None:
        """Chrome-trace / Perfetto JSON: one complete ("X") event per span,
        timestamps in microseconds from the first span's start."""
        origin = self.spans[0].start if self.spans else 0.0
        events: list[dict] = [
            {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
             "args": {"name": process_name}},
        ]
        for s in self.spans:
            args = {"id": s.id, "parent": s.parent}
            if s.step is not None:
                args["step"] = s.step
            events.append({
                "ph": "X", "pid": 0, "tid": 0, "name": s.name,
                "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
                "args": args,
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# -- statistics ----------------------------------------------------------------

TAIL_LADDER = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile (no interpolation: every reported value is a
    sample that was measured)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil(n * p / 100)
    return ordered[int(rank) - 1]


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """``(p, value)`` for the highest ladder percentile that still has at
    least ``TAIL_BEYOND`` samples beyond it; with too few samples for even
    the median to qualify, the median is reported (``p = 50``) and the
    printed sample count says how thin it is."""
    n = len(samples)
    for p in TAIL_LADDER:
        if n * (100 - p) / 100.0 >= TAIL_BEYOND:
            return p, percentile(samples, p)
    return 50, percentile(samples, 50)


median = statistics.median


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(samples) < 2:
        v = samples[0]
        return v, v, v
    return tuple(statistics.quantiles(samples, n=4))


def timeit(fn, repeats: int, number: int = 1) -> float:
    """Median seconds per call of ``fn`` over ``repeats`` timed batches of
    ``number`` calls, after one untimed call."""
    fn()
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        out.append((time.perf_counter() - t0) / number)
    return statistics.median(out)
