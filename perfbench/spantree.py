"""In-memory spans and the self-time fold behind the per-layer table.

A span is one call into a layer: a name, a start and an end on the
benchmark's clock, the span that was open on the same thread when it
started (its parent), and numeric counts (rows, bytes, messages).
Spans stay in memory until the run ends; nothing is written while the
workload is being measured.

A span's *self-time* is its duration minus the part of that interval
its child spans cover.  When every child lies inside its parent and
siblings do not overlap -- which a per-thread stack guarantees -- the
self-times of a subtree add up exactly to the duration of its root.
:func:`check_accounting` verifies that property on recorded trees, so
an instrumentation gap cannot hide as unattributed time.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field


class Span:
    """One recorded interval."""

    __slots__ = ("name", "start", "end", "parent", "children", "counts",
                 "attrs")

    def __init__(self, name: str, start: float,
                 parent: "Span | None") -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.children: list[Span] = []
        self.counts: dict[str, float] = {}
        self.attrs: dict[str, object] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def add(self, key: str, amount: float) -> None:
        """Accumulate a count on this span."""
        self.counts[key] = self.counts.get(key, 0) + amount

    def __repr__(self) -> str:
        return f"<Span {self.name} {self.duration:.6f}s>"


class SpanRecorder:
    """Collects spans from any number of threads.

    Each thread keeps its own stack of open spans, so a span's parent
    is whatever that thread had open when the span started.  A span
    opened with an empty stack is a root.  Finished spans are appended
    to :attr:`spans` under a lock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.last = {}
        return stack

    def span(self, name: str, **attrs: object) -> "_OpenSpan":
        """Record the enclosed ``with`` block as one span named
        ``name``; the block receives the :class:`Span`."""
        return _OpenSpan(self, name, attrs)

    def _open(self, name: str, attrs: dict) -> Span:
        stack = self._stack()
        span = Span(name, self.clock(), stack[-1] if stack else None)
        if attrs:
            span.attrs.update(attrs)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._local.stack.pop()
        if span.parent is not None:
            span.parent.children.append(span)
        self._local.last[span.name] = span
        with self._lock:
            self.spans.append(span)

    def last(self, name: str) -> Span | None:
        """The most recent finished span called ``name`` on the calling
        thread."""
        self._stack()
        return self._local.last.get(name)

    def roots(self, name: str | None = None) -> list[Span]:
        """Recorded root spans, optionally only those called ``name``."""
        with self._lock:
            spans = list(self.spans)
        return [
            span for span in spans
            if span.parent is None and (name is None or span.name == name)
        ]

    def snapshot(self) -> list[Span]:
        with self._lock:
            return list(self.spans)


class _OpenSpan:
    """Context manager returned by :meth:`SpanRecorder.span`."""

    __slots__ = ("_recorder", "_name", "_attrs", "_span")

    def __init__(self, recorder: SpanRecorder, name: str,
                 attrs: dict) -> None:
        self._recorder = recorder
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        self._span = self._recorder._open(self._name, self._attrs)
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._recorder._close(self._span)


def covered_seconds(span: Span) -> float:
    """Length of the union of ``span``'s child intervals, clipped to
    the span itself."""
    intervals = sorted(
        (max(child.start, span.start), min(child.end, span.end))
        for child in span.children
    )
    covered = 0.0
    current_start = current_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_seconds(span: Span) -> float:
    """The span's duration minus the part its children cover."""
    return span.duration - covered_seconds(span)


def subtree(root: Span) -> Iterator[Span]:
    """``root`` and all its descendants, depth first."""
    pending = [root]
    while pending:
        span = pending.pop()
        yield span
        pending.extend(span.children)


@dataclass
class LayerTotals:
    """Self-time, span count and summed counts of one span name."""

    self_seconds: float = 0.0
    spans: int = 0
    counts: dict[str, float] = field(default_factory=dict)


def fold(spans: Iterable[Span]) -> dict[str, LayerTotals]:
    """Sum self-time and counts per span name."""
    layers: dict[str, LayerTotals] = {}
    for span in spans:
        totals = layers.setdefault(span.name, LayerTotals())
        totals.self_seconds += self_seconds(span)
        totals.spans += 1
        for key, amount in span.counts.items():
            totals.counts[key] = totals.counts.get(key, 0) + amount
    return layers


@dataclass
class Accounting:
    """How well the self-times of one subtree cover its root."""

    root_seconds: float
    self_seconds: float
    escaped: int

    @property
    def ok(self) -> bool:
        # Rounding in the clock subtractions only: a microsecond per
        # second of root is orders of magnitude above it.
        tolerance = 1e-6 * max(self.root_seconds, 1e-3)
        return (self.escaped == 0
                and abs(self.root_seconds - self.self_seconds)
                <= tolerance)


def check_accounting(root: Span) -> Accounting:
    """Sum the self-times under ``root`` and count children that start
    before or end after their parent (spans that escaped it)."""
    total = 0.0
    escaped = 0
    for span in subtree(root):
        total += self_seconds(span)
        for child in span.children:
            if child.start < span.start or child.end > span.end:
                escaped += 1
    return Accounting(root.duration, total, escaped)
