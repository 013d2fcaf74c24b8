"""The self-time fold on synthetic span trees."""

import pytest

from instrument import TracedIterator
from spantree import (
    Span,
    SpanRecorder,
    check_accounting,
    fold,
    self_seconds,
)


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def recorder(clock):
    return SpanRecorder(clock)


def by_name(recorder):
    return {span.name: span for span in recorder.snapshot()}


def test_nested_spans(recorder, clock):
    with recorder.span("outer"):
        clock.advance(2)
        with recorder.span("middle"):
            clock.advance(1)
            with recorder.span("inner"):
                clock.advance(1)
            clock.advance(1)
        clock.advance(5)
    spans = by_name(recorder)
    assert spans["outer"].duration == 10
    assert self_seconds(spans["outer"]) == 7
    assert self_seconds(spans["middle"]) == 2
    assert self_seconds(spans["inner"]) == 1
    assert spans["inner"].parent is spans["middle"]
    accounting = check_accounting(spans["outer"])
    assert accounting.ok
    assert accounting.self_seconds == pytest.approx(10)


def test_sibling_spans(recorder, clock):
    with recorder.span("exchange"):
        clock.advance(1)
        with recorder.span("scan"):
            clock.advance(2)
        clock.advance(1)
        with recorder.span("write"):
            clock.advance(4)
        with recorder.span("scan"):
            clock.advance(1)
        clock.advance(1)
    layers = fold(recorder.snapshot())
    assert layers["exchange"].self_seconds == 3
    assert layers["scan"].self_seconds == 3
    assert layers["scan"].spans == 2
    assert layers["write"].self_seconds == 4
    (root,) = recorder.roots("exchange")
    assert check_accounting(root).ok


def test_lazy_iterator_pulling_a_wrapped_upstream(recorder, clock):
    """A combine iterator whose ``__next__`` pulls a traced scan
    iterator, drained inside a write: each layer keeps only its own
    time, and the three add up to the write's duration."""

    def scan_batches():
        for rows in (3, 2):
            clock.advance(1)  # reading a batch off the store
            yield Batch(rows)

    def combine(upstream):
        for batch in upstream:
            clock.advance(0.5)  # joining the batch
            yield Batch(batch.rows * 2)

    def count(span, batch):
        span.add("rows", batch.rows)

    scans = TracedIterator(recorder, "scan", scan_batches(), count)
    combined = TracedIterator(recorder, "combine", combine(scans), count)
    with recorder.span("write"):
        for _ in combined:
            clock.advance(0.25)  # storing the batch
    layers = fold(recorder.snapshot())
    # Two batches, plus the pull that ends each iteration.
    assert layers["scan"].spans == 3
    assert layers["combine"].spans == 3
    assert layers["scan"].self_seconds == pytest.approx(2)
    assert layers["combine"].self_seconds == pytest.approx(1)
    assert layers["write"].self_seconds == pytest.approx(0.5)
    assert layers["scan"].counts["rows"] == 5
    assert layers["combine"].counts["rows"] == 10
    (root,) = recorder.roots("write")
    assert root.duration == pytest.approx(3.5)
    assert check_accounting(root).ok


def test_accounting_flags_an_escaped_child(recorder, clock):
    with recorder.span("exchange"):
        with recorder.span("scan") as scan:
            clock.advance(1)
    clock.advance(1)
    scan.end = clock.now  # as if the scan outlived its parent
    (root,) = recorder.roots("exchange")
    accounting = check_accounting(root)
    assert accounting.escaped == 1
    assert not accounting.ok


def test_overlapping_children_are_counted_once():
    parent = Span("parent", 0.0, None)
    parent.end = 4.0
    for name, start, end in (("a", 0.0, 3.0), ("b", 2.0, 4.0)):
        child = Span(name, start, parent)
        child.end = end
        parent.children.append(child)
    assert self_seconds(parent) == 0.0


class Batch:
    def __init__(self, rows):
        self.rows = rows

    def row_count(self):
        return self.rows
