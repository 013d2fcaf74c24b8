"""``Split`` (Definition 3.8): project a fragment into disjoint pieces.

``Split(f, f1, ..., fn)`` partitions ``f``'s elements into fragments
``f1 ... fn``, introducing fresh ``ID``/``PARENT`` exposure on each piece
to preserve the parent/child relationships the schema dictates.

Like ``Combine``, the operation evaluates two ways: :meth:`Split.apply`
over whole instances, and :meth:`Split.apply_batches`, which maps the
instance-level split over each input batch independently — splitting is
row-local, so concatenating the per-batch piece rows reproduces the
materialized output exactly.  Because the n piece streams are drained
by different consumers, undrained piece batches queue inside a shared
(thread-safe) state; at most one input batch is split ahead of the
slowest consumer's need.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.columnar import ColumnBatch, layout_of
from repro.core.fragment import Fragment
from repro.core.instance import FragmentInstance
from repro.core.ops.base import Location, Operation
from repro.core.stream import ResidencyMeter, RowBatch


class Split(Operation):
    """Split ``fragment`` into the given disjoint pieces."""

    kind = "split"

    def __init__(self, fragment: Fragment, pieces: Sequence[Fragment],
                 location: Location | None = None) -> None:
        # Validates that `pieces` partitions `fragment`.
        fragment.split_into(
            [piece.elements for piece in pieces],
            [piece.name for piece in pieces],
        )
        super().__init__((fragment,), tuple(pieces), location)

    @property
    def fragment(self) -> Fragment:
        """The fragment being split."""
        return self.inputs[0]

    @property
    def pieces(self) -> tuple[Fragment, ...]:
        """The output fragments, in positional order."""
        return self.outputs

    def apply(self, instance: FragmentInstance) -> list[FragmentInstance]:
        """Instance-level split (consumes the input)."""
        return instance.split(list(self.pieces))

    def apply_batches(self, batches: Iterable[RowBatch], *,
                      tick: Callable[[float, int], None] | None = None,
                      meter: ResidencyMeter | None = None
                      ) -> list[Iterator[RowBatch]]:
        """Streaming split: one output batch iterator per piece.

        Each pulled input batch is split with the instance-level
        semantics and its piece rows are queued on every piece's
        output — as one batch per piece, even an empty one, so every
        piece stream carries as many batches as the input; pulling any
        piece refills from the input as needed.
        Safe to drain from concurrent threads (the parallel executor
        runs each downstream expression in its own task).
        """
        state = _SplitBatchState(self, iter(batches), tick, meter)
        return [state.stream(index) for index in range(len(self.pieces))]

    def apply_column_batches(
        self, batches: Iterable[ColumnBatch], *,
        tick: Callable[[float, int], None] | None = None,
        meter: ResidencyMeter | None = None,
    ) -> "list[Iterator[ColumnBatch]]":
        """Columnar split: pure projection/partition, no tree work.

        Each piece selects the input rows where its root's key column
        is non-null and projects the piece's columns by name — the
        piece root's key becomes its ``id``, the key of its schema
        parent becomes its ``parent`` (fresh ID/PARENT exposure straight
        from existing key columns).  The root piece keeps every row and
        reuses the input's column arrays zero-copy.  Queueing/refill
        discipline matches :meth:`apply_batches`.
        """
        state = _ColumnSplitState(self, iter(batches), tick, meter)
        return [state.stream(index) for index in range(len(self.pieces))]


class _SplitBatchState:
    """Shared refill state behind the piece streams of one Split."""

    def __init__(self, op: Split, batches: Iterator[RowBatch],
                 tick: Callable[[float, int], None] | None,
                 meter: ResidencyMeter | None) -> None:
        self._op = op
        self._batches = batches
        self._tick = tick
        self._meter = meter
        self._lock = threading.Lock()
        self._queues: list[deque[RowBatch]] = [
            deque() for _ in op.pieces
        ]
        self._seqs = [0] * len(op.pieces)
        self._exhausted = False
        self._failure: BaseException | None = None

    def _refill(self) -> None:
        """Split one more input batch into the queues (lock held).

        Raises:
            StopIteration: when the input stream is exhausted.
        """
        batch = next(self._batches)
        started = time.perf_counter()
        in_bytes = batch.estimated_size() if self._meter else 0
        pieces = FragmentInstance(
            self._op.fragment, batch.rows
        ).split(list(self._op.pieces))
        rows = sum(len(piece.rows) for piece in pieces)
        if self._tick is not None:
            self._tick(time.perf_counter() - started, rows)
        for index, piece in enumerate(pieces):
            if self._meter is not None:
                self._meter.acquire(
                    len(piece.rows), piece.estimated_size()
                )
            self._queues[index].append(
                RowBatch(piece.fragment, piece.rows, self._seqs[index])
            )
            self._seqs[index] += 1
        if self._meter is not None:
            self._meter.release(len(batch.rows), in_bytes)

    def _pull(self, index: int) -> RowBatch | None:
        with self._lock:
            while not self._queues[index]:
                if self._failure is not None:
                    raise self._failure
                if self._exhausted:
                    return None
                try:
                    self._refill()
                except StopIteration:
                    self._exhausted = True
                except BaseException as exc:
                    self._failure = exc
                    raise
            return self._queues[index].popleft()

    def stream(self, index: int) -> Iterator[RowBatch]:
        while True:
            batch = self._pull(index)
            if batch is None:
                return
            yield batch


class _ColumnSplitState:
    """Shared refill state behind the columnar piece streams.

    Same locking/queueing discipline as :class:`_SplitBatchState`; the
    per-batch work is column projection instead of tree surgery.
    """

    def __init__(self, op: Split, batches: Iterator[ColumnBatch],
                 tick: Callable[[float, int], None] | None,
                 meter: ResidencyMeter | None) -> None:
        self._op = op
        self._batches = batches
        self._tick = tick
        self._meter = meter
        self._lock = threading.Lock()
        self._queues: list[deque[ColumnBatch]] = [
            deque() for _ in op.pieces
        ]
        self._seqs = [0] * len(op.pieces)
        self._exhausted = False
        self._failure: BaseException | None = None
        # Per-piece projection plan: (layout, key column in the input,
        # input column name per piece spec).
        input_layout = layout_of(op.fragment)
        schema = op.fragment.schema
        self._plans = []
        for piece in op.pieces:
            layout = layout_of(piece)
            key_column = input_layout.eid_column(piece.root_name)
            sources: list[str] = []
            for spec in layout.specs:
                if spec.role == "id":
                    sources.append(key_column)
                elif spec.role == "parent":
                    if piece.root_name == op.fragment.root_name:
                        sources.append("parent")
                    else:
                        anchor = schema.parent_name(piece.root_name)
                        sources.append(
                            input_layout.eid_column(anchor)
                        )
                else:
                    sources.append(spec.name)
            self._plans.append((layout, key_column, sources))

    def _refill(self) -> None:
        """Project one more input batch into the queues (lock held).

        Raises:
            StopIteration: when the input stream is exhausted.
        """
        batch = next(self._batches)
        started = time.perf_counter()
        in_bytes = batch.estimated_size() if self._meter else 0
        in_rows = batch.row_count()
        out: list[ColumnBatch] = []
        rows = 0
        for index, piece in enumerate(self._op.pieces):
            layout, key_column, sources = self._plans[index]
            keys = batch.column(key_column)
            if key_column == "id":
                kept = None  # the root piece keeps every row
                count = in_rows
            else:
                kept = [position for position, key in enumerate(keys)
                        if key is not None]
                count = len(kept)
            if kept is None or count == in_rows:
                columns = [batch.column(name) for name in sources]
            else:
                columns = [
                    [cells[position] for position in kept]
                    for cells in (batch.column(name)
                                  for name in sources)
                ]
            out.append(ColumnBatch(piece, columns,
                                   self._seqs[index], layout))
            rows += count
        if self._tick is not None:
            self._tick(time.perf_counter() - started, rows)
        for index, piece_batch in enumerate(out):
            if self._meter is not None:
                self._meter.acquire(piece_batch.row_count(),
                                    piece_batch.estimated_size())
            self._queues[index].append(piece_batch)
            self._seqs[index] += 1
        if self._meter is not None:
            self._meter.release(in_rows, in_bytes)

    def _pull(self, index: int) -> ColumnBatch | None:
        with self._lock:
            while not self._queues[index]:
                if self._failure is not None:
                    raise self._failure
                if self._exhausted:
                    return None
                try:
                    self._refill()
                except StopIteration:
                    self._exhausted = True
                except BaseException as exc:
                    self._failure = exc
                    raise
            return self._queues[index].popleft()

    def stream(self, index: int) -> Iterator[ColumnBatch]:
        while True:
            batch = self._pull(index)
            if batch is None:
                return
            yield batch
