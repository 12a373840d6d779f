"""Span tracer for the benchmark's traced runs.

Spans are recorded from the benchmark's own files.  ``install`` replaces each
traced projsum function, in every projsum namespace that holds it (the
module namespaces where callers look it up), by a wrapper that records the
span's name, start, end, parent span and operation id in memory.  The
untraced runs never call ``install``, so they execute projsum unpatched.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    """One call into a traced function; ``parent`` indexes ``Tracer.spans``."""

    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    """In-memory span recorder.

    Traced functions must be called from one thread: the parent of a span is
    the innermost span still open on the tracer's stack.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """Wrapper of ``fn`` that records a span; ``count(result, *args, **kwargs)``
        returns the span's counters and runs after the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None, self.op)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                span.counts = count(result, *args, **kwargs)
            return result

        return traced


def install(tracer: Tracer, modules, targets: dict[str, tuple[Callable, Callable | None]]) -> Callable[[], None]:
    """Patch every module attribute bound to a target function with its wrapper.

    ``targets`` maps a span name to (function, counter).  Returns a function
    that restores the original bindings.
    """
    patched = []
    for name, (fn, count) in targets.items():
        wrapper = tracer.wrap(name, fn, count)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, fn))
        if not any(original is fn for _, _, original in patched):
            raise LookupError(f"{name} is bound in none of the traced modules")

    def restore() -> None:
        for mod, attr, fn in patched:
            setattr(mod, attr, fn)

    return restore


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((lo, hi) for lo, hi in intervals if hi > lo):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return [
        (s.end - s.start)
        - union_length((max(c.start, s.start), min(c.end, s.end)) for c in kids)
        for s, kids in zip(spans, children)
    ]


def root_coverage(spans: list[Span], start: float, end: float) -> float:
    """Share of [start, end] covered by spans that have no parent."""
    roots = ((max(s.start, start), min(s.end, end)) for s in spans if s.parent is None)
    return union_length(roots) / (end - start)


def layer_totals(spans: list[Span], selfs: list[float]) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed self time and summed counters."""
    out: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, selfs):
        entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        for key, value in span.counts.items():
            entry[key] = entry.get(key, 0) + value
    return out
