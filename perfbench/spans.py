"""In-memory span recording for the traced benchmark run.

A span is one call into a hiercl layer, seen from outside the program. The
benchmark either opens a span around its own call (``Tracer.span``) or
replaces the module attribute a caller bound with a recording wrapper
(``Tracer.wrap``); ``Tracer.restore`` puts every original binding back.
Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Hashable


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    batch: Hashable | None  # training step or command the span belongs to
    meta: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered(children.get(s.sid, []), s.start, s.end)
        for s in spans
    }


MetaFn = Callable[[tuple, dict, object], dict]


class Tracer:
    """Records nested spans on one thread and owns the wrappers it installs."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.batch: Hashable | None = None
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, self.clock(), 0.0, parent, self.batch)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str, **meta):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)
        s.meta.update(meta)

    def wrap(self, owner: object, attr: str, name: str, meta: MetaFn | None = None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span per call."""
        stored = inspect.getattr_static(owner, attr)  # what restore puts back
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(s)
            if meta is not None:
                s.meta.update(meta(args, kwargs, result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, stored))

    def restore(self) -> None:
        """Put back every binding ``wrap`` replaced, newest first."""
        while self._patches:
            owner, attr, stored = self._patches.pop()
            setattr(owner, attr, stored)
