"""Span recording for the traced benchmark run.

The tracer wraps public calls of the ``repro`` package from the outside:
:meth:`Tracer.wrap` replaces an attribute (a module function or a class
method) with a wrapper that records one span per call and restores the
original on :meth:`Tracer.uninstall`.  Nothing under ``src/`` changes.

A span is ``(id, name, start, end, parent, request, thread)``.  Spans live
in per-thread lists of plain tuples (appending needs no lock) and are
merged into :class:`Span` records once, when the run ends.  A wrapper
stamps its start before and its end after its own bookkeeping, so the
cost of tracing a call is charged to that call's span, not to the
caller's self time.  The parent of a span is the innermost open span on the same
thread; :meth:`Tracer.record` adds spans whose bounds were stamped
elsewhere (the serving request path crosses threads), with an explicit
parent and request id.

Self time is a span's duration minus the part of it covered by the union
of its children.  :func:`coverage` compares what the layer calls under the
root spans cover with the roots' wall time: a gap means a layer's public
call is not wrapped.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

__all__ = ["Span", "Tracer", "self_times", "coverage"]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    thread: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Per-thread span buffers plus the wrappers that fill them."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._buffers: list[list[tuple]] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- buffers --------------------------------------------------------
    def _thread_state(self):
        state = self._local
        if not hasattr(state, "spans"):
            state.spans = []
            state.stack = []
            state.thread = threading.current_thread().name
            with self._lock:
                self._buffers.append(state.spans)
        return state

    def next_id(self) -> int:
        return next(self._ids)

    def record(self, name: str, start: float, end: float, *,
               parent: int | None = None, request: int | None = None) -> int:
        """Add a span whose bounds were stamped by the caller."""
        state = self._thread_state()
        span_id = self.next_id()
        state.spans.append((span_id, name, start, end, parent, request,
                            state.thread))
        return span_id

    def span(self, name: str):
        """Context manager recording one span on the calling thread."""
        return _SpanContext(self, name)

    def spans(self) -> list[Span]:
        with self._lock:
            buffers = list(self._buffers)
        return [Span(*span) for buffer in buffers for span in buffer]

    # -- wrappers -------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *,
             outermost: bool = False) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``outermost`` records only calls not nested in another call of the
        same wrapper on the same thread (recursive entry points).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        function = original
        if isinstance(original, (staticmethod, classmethod)):
            function = original.__func__
        tracer = self
        depth_key = f"depth:{name}"

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            state = tracer._thread_state()
            if outermost:
                depth = getattr(state, depth_key, 0)
                setattr(state, depth_key, depth + 1)
                if depth:
                    try:
                        return function(*args, **kwargs)
                    finally:
                        setattr(state, depth_key, depth)
            span_id = tracer.next_id()
            parent = state.stack[-1] if state.stack else None
            state.stack.append(span_id)
            try:
                return function(*args, **kwargs)
            finally:
                state.stack.pop()
                if outermost:
                    setattr(state, depth_key, 0)
                state.spans.append((span_id, name, start, time.perf_counter(),
                                    parent, None, state.thread))

        replacement = wrapper
        if isinstance(original, staticmethod):
            replacement = staticmethod(wrapper)
        elif isinstance(original, classmethod):
            replacement = classmethod(wrapper)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _SpanContext:
    __slots__ = ("tracer", "name", "span_id", "parent", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> int:
        state = self.tracer._thread_state()
        self.span_id = self.tracer.next_id()
        self.parent = state.stack[-1] if state.stack else None
        state.stack.append(self.span_id)
        self.start = time.perf_counter()
        return self.span_id

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        state = self.tracer._thread_state()
        state.stack.pop()
        state.spans.append((self.span_id, self.name, self.start, end,
                            self.parent, None, state.thread))


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------
def _covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(start, lo), min(end, hi)) for lo, hi in intervals
                     if hi > start and lo < end)
    total = 0.0
    cursor = start
    for lo, hi in clipped:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {span.id: span.duration - _covered(span.start, span.end,
                                              children.get(span.id, ()))
            for span in spans}


def coverage(spans: list[Span], roots, containers: tuple = ()) -> dict:
    """How much of the root spans' wall time the layers account for.

    ``roots`` is a span name or a tuple of them.  The self times of all
    spans under a root add up to the root's wall time.  The roots' own
    self time, and that of ``containers`` (calls that only sequence other
    layers' calls), is time no wrapped layer call explains, so the covered
    share is one minus their sum over the roots' wall time.
    """
    names = (roots,) if isinstance(roots, str) else tuple(roots)
    own = self_times(spans)
    root_spans = [span for span in spans if span.name in names]
    wall = sum(span.duration for span in root_spans)
    uncovered = sum(own[span.id] for span in spans
                    if span.name in names or span.name in containers)
    return {"root": "+".join(names), "containers": list(containers),
            "roots": len(root_spans), "wall_s": wall,
            "uncovered_s": uncovered,
            "covered": (1.0 - uncovered / wall) if wall > 0 else 0.0}
