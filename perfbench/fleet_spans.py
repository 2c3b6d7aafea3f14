"""Span and self-time arithmetic for the traced fleet run.

A span brackets one call into a layer's public function.  Spans nest: a
request span (``Server.process``) contains accessor spans, which contain
policy-decision spans, and so on.  A layer's *self time* is a span's
duration minus the time its child spans cover, so self times partition the
time inside top-level spans exactly, and serving time outside every
top-level span is the scheduler's own dispatch time.

Sendmail makes millions of per-byte accessor calls per run, far too many to
keep one record each, so spans inside a request are aggregated per layer as
``count``, ``total`` and ``self`` time.  Only the per-request spans are kept
one by one.

A call into a layer from inside the same layer (``calloc`` calling
``malloc``, a policy's run hook falling back to its per-byte hook) opens no
new span: a layer's count is the number of times control entered it from
another layer.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional


class LayerStats:
    """Aggregated spans of one layer: entries, inclusive and self seconds."""

    __slots__ = ("name", "count", "total", "self_time")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0


class SpanTracer:
    """A span stack with per-layer aggregates.

    Spans are recorded only while :attr:`active` is true; outside that
    window wrapped functions run untraced, so set-up work does not pollute
    the serving-time partition.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.active = False
        self.layers: Dict[str, LayerStats] = {}
        #: Open frames, innermost last: ``[stats, start, child_seconds]``.
        self._stack: List[list] = []
        #: Summed duration of top-level spans (no open parent).
        self.root_time = 0.0
        #: One record per request span: ``(layer, request_id, start, end)``.
        self.requests: List[tuple] = []

    def layer(self, name: str) -> LayerStats:
        stats = self.layers.get(name)
        if stats is None:
            stats = self.layers[name] = LayerStats(name)
        return stats

    @property
    def depth(self) -> int:
        return len(self._stack)

    def enter(self, name: str) -> Optional[list]:
        """Open a span in layer ``name``; None when it would not be recorded."""
        if not self.active:
            return None
        stats = self.layer(name)
        stack = self._stack
        if stack and stack[-1][0] is stats:
            return None
        frame = [stats, self.clock(), 0.0]
        stack.append(frame)
        return frame

    def exit(self, frame: Optional[list]) -> float:
        """Close ``frame`` (the innermost open span); returns its duration."""
        if frame is None:
            return 0.0
        end = self.clock()
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError("spans must close innermost first")
        stack.pop()
        stats, start, children = frame
        duration = end - start
        stats.count += 1
        stats.total += duration
        stats.self_time += duration - children
        if stack:
            stack[-1][2] += duration
        else:
            self.root_time += duration
        return duration

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` with every call recorded as a span of layer ``name``."""
        stats = self.layer(name)
        stack = self._stack
        clock = self.clock
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active or (stack and stack[-1][0] is stats):
                return func(*args, **kwargs)
            frame = [stats, clock(), 0.0]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.exit(frame)

        return traced


def dispatch_self_time(serving_seconds: float, tracer: SpanTracer) -> float:
    """Serving time outside every top-level span: the scheduler's own work."""
    return serving_seconds - tracer.root_time


__all__ = ["LayerStats", "SpanTracer", "dispatch_self_time"]
