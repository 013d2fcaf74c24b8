"""The one scheduler that executes placed programs.

Every placed program runs here, over :class:`~repro.core.stream.
RowBatch` pipelines — or :class:`~repro.core.columnar.ColumnBatch`
ones on the columnar dataplane.  Scan streams off the endpoint,
Combine/Split transform per batch (:meth:`~repro.core.ops.combine.
Combine.apply_batches` / :meth:`~repro.core.ops.split.Split.
apply_batches`), each cross-edge batch ships through the channel as
its own message, and Writes store batches as they arrive.

``batch_rows`` sets the batch size.  ``None`` means one batch per
edge: a Scan yields its whole feed as a single batch — an empty one
when the fragment holds no rows — and Split emits every piece's batch
even when the piece is empty, so each cross-edge ships exactly one
message, as the paper's sorted-feed exchange does (Section 4.1).

Three schedules share the per-node stages:

* **eager** (``workers=1`` with ``batch_rows=None``, or whenever an
  :class:`~repro.core.program.executor.ExecutionMonitor` is attached):
  one operation at a time in topological order.  Each node's location
  is committed when it starts, inputs held elsewhere ship at consume
  time, and outputs drain completely before the next node starts —
  the paper's sequential piece-by-piece run (Section 5.2), and the
  per-operation checkpoint :class:`~repro.adapt.executor.AdaptiveRun`
  re-places the unstarted suffix at;
* **pipelined**: the Writes *drive* the network by pulling, one after
  another in topological order, so a batch travels the whole chain
  scan → transform → ship → load before the next one is produced and
  resident rows stay bounded by the batch size times the pipeline
  depth (plus Combine's child frontier) instead of the document size;
* **parallel** (``workers > 1``): every Write's chain is one task on a
  ``workers``-wide compute pool — independent expressions run
  concurrently — and each cross-edge gets a prefetch stage on a second
  pool, so producing batch *i+1* overlaps shipping batch *i* (the
  per-edge overlap of the Distributed XML-Query Network proposal).

Per-operation seconds measure each node's own work (upstream
production pulled from inside a consumer is charged to the producer,
not the consumer); shipment and peak-memory fields follow the single
definition on :class:`~repro.core.program.executor.ExecutionReport`.
"""

from __future__ import annotations

import queue
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from typing import TYPE_CHECKING, Iterator

from repro.errors import ProgramError
from repro.core.columnar import ColumnBatch
from repro.core.ops.base import Location, Operation
from repro.core.ops.combine import Combine
from repro.core.ops.scan import Scan
from repro.core.ops.split import Split
from repro.core.ops.write import Write
from repro.core.program.dag import Edge, Placement, TransferProgram
from repro.core.program.executor import (
    DataEndpoint,
    ExecutionReport,
    OperationTiming,
    ShippingChannel,
    apply_robustness,
    critical_path_seconds,
)
from repro.core.program.journal import ExchangeJournal, write_key
from repro.core.stream import FragmentStream, ResidencyMeter, RowBatch
from repro.net.faults import (
    ReliableBatchLink,
    RetryPolicy,
    RobustnessStats,
)
from repro.obs.metrics import (
    MetricsRegistry,
    observe_join,
    observe_operation,
    observe_shipment,
)
from repro.obs.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.program.executor import ExecutionMonitor


class _AbortedRun(RuntimeError):
    """Internal: a task bailed because another task already failed."""


class _NodeStats:
    """Per-node accumulators filled while batches flow."""

    __slots__ = ("seconds", "rows")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.rows = 0


class _Prefetch:
    """Pulls an upstream iterator on a pool into a bounded queue.

    The consumer's pulls then overlap the producer's work — on a
    cross-edge this is what lets shipping batch *i* (in the consumer)
    overlap producing batch *i+1* (here).  ``abort`` unblocks both
    sides when the run fails elsewhere.
    """

    _DONE = object()
    _POLL_SECONDS = 0.05

    def __init__(self, source: Iterator[RowBatch],
                 pool: ThreadPoolExecutor, abort: threading.Event,
                 depth: int = 2) -> None:
        self._queue: queue.Queue = queue.Queue(maxsize=depth)
        self._abort = abort
        pool.submit(self._produce, source)

    def _produce(self, source: Iterator[RowBatch]) -> None:
        try:
            for batch in source:
                if not self._put(batch):
                    return
            self._put(self._DONE)
        except BaseException as exc:  # noqa: BLE001 - forwarded below
            self._put(exc)

    def _put(self, item: object) -> bool:
        while not self._abort.is_set():
            try:
                self._queue.put(item, timeout=self._POLL_SECONDS)
                return True
            except queue.Full:
                continue
        return False

    def __iter__(self) -> "_Prefetch":
        return self

    def __next__(self) -> RowBatch:
        while True:
            try:
                item = self._queue.get(timeout=self._POLL_SECONDS)
            except queue.Empty:
                if self._abort.is_set():
                    raise _AbortedRun("streaming run aborted") from None
                continue
            if item is self._DONE:
                raise StopIteration
            if isinstance(item, BaseException):
                raise item
            return item


class StreamingRun:
    """One execution of a placed program."""

    def __init__(self, program: TransferProgram, placement: Placement,
                 source: DataEndpoint, target: DataEndpoint,
                 channel: ShippingChannel, batch_rows: int | None,
                 retry: RetryPolicy | None = None,
                 journal: ExchangeJournal | None = None,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 columnar: bool = False,
                 join_strategy: str | None = None) -> None:
        self.program = program
        self.placement = placement
        self.source = source
        self.target = target
        self.channel = channel
        self.batch_rows = batch_rows
        self.retry = retry
        self.journal = journal
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics
        #: Columnar dataplane: flat-storable fragments move as
        #: :class:`~repro.core.columnar.ColumnBatch` (Combine runs the
        #: build/probe join, Split projects columns); non-flat
        #: fragments fall back to row batches per stream.
        self.columnar = columnar
        #: Pins the columnar Combine's join strategy ("hash"/"merge");
        #: ``None`` auto-selects from observed feed order.
        self.join_strategy = join_strategy
        self._wire_format = bool(getattr(channel, "wire_format", False))
        self._rstats = RobustnessStats()
        self.report = ExecutionReport(batch_rows=batch_rows)
        self.meter = ResidencyMeter()
        self._lock = threading.Lock()
        self._stats = {
            node.op_id: _NodeStats() for node in program.nodes
        }
        #: Where each node ran (the eager schedule may move unstarted
        #: nodes between checkpoints) and, eagerly, when it started.
        self._locations: dict[int, Location] = {}
        self._starts: dict[int, float] = {}
        #: Per-op dataplane strategy actually used ("row" when absent;
        #: "columnar" for columnar scan/split/write, the join strategy
        #: for a columnar combine) — reported on each OperationTiming.
        self._strategies: dict[int, str] = {}
        self._abort = threading.Event()
        self._prefetch_pool: ThreadPoolExecutor | None = None
        self._leftovers: list[tuple[int, int]] = []

    # -- driving ----------------------------------------------------------------

    def execute(self, workers: int = 1,
                monitor: "ExecutionMonitor | None" = None
                ) -> ExecutionReport:
        """Run the program and return its report.

        The schedule follows the module docstring: eager when
        ``monitor`` is given or when ``workers == 1`` and
        ``batch_rows`` is ``None``; otherwise the Writes drive the
        pipeline, sequentially or ``workers``-wide.

        Raises:
            ProgramError: if a value is never produced, consumed twice
                or left unconsumed.
        """
        started = time.perf_counter()
        if self.journal is not None:
            self.report.resume_count = self.journal.begin_run()
        if monitor is not None or (
                workers == 1 and self.batch_rows is None):
            self._run_eager(monitor)
        elif workers == 1:
            for drive in self._build():
                self._drive_write(*drive)
        else:
            self._run_parallel(workers)
        return self._finish(started)

    def _run_parallel(self, workers: int) -> None:
        """Drive every Write as its own task on a ``workers``-wide
        pool, with cross-edge prefetch on a second pool."""
        # One prefetch thread per cross-edge: a producer occupies its
        # thread while blocked on its bounded queue, so a smaller pool
        # deadlocks whenever the running producers feed writes that are
        # queued behind writes whose own producers never got a thread
        # (placements with multi-input cross chains hit this).
        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-stream",
        ) as compute, ThreadPoolExecutor(
            max_workers=max(workers, self._cross_edge_count(), 1),
            thread_name_prefix="repro-prefetch",
        ) as prefetch:
            self._prefetch_pool = prefetch
            try:
                drives = self._build()
            except BaseException:
                # Prefetchers wired so far are already producing; they
                # would block on their bounded queues forever.
                self._abort.set()
                raise
            futures = [
                compute.submit(self._drive_write, *drive)
                for drive in drives
            ]
            failure: BaseException | None = None
            for future in as_completed(futures):
                exc = future.exception()
                if exc is None:
                    continue
                self._abort.set()
                if failure is None or isinstance(failure, _AbortedRun):
                    failure = exc
        if failure is not None:
            raise failure

    def _cross_edge_count(self) -> int:
        """Edges whose producer and consumer are placed apart — each
        one becomes a :class:`_Prefetch` producer in parallel mode."""
        count = 0
        for node in self.program.nodes:
            location = self.placement[node.op_id]
            for edge in self.program.in_edges(node):
                if self.placement[edge.producer.op_id] is not location:
                    count += 1
        return count

    def _finish(self, started: float) -> ExecutionReport:
        if self._leftovers:
            leftovers = ", ".join(
                f"op {op_id} port {port}"
                for op_id, port in self._leftovers
            )
            raise ProgramError(f"unconsumed program outputs: {leftovers}")
        report = self.report
        for node in self.program.topological_order():
            stats = self._stats[node.op_id]
            location = self._locations[node.op_id]
            strategy = self._strategies.get(node.op_id, "row")
            report.op_timings.append(
                OperationTiming(node.label(), node.kind, location,
                                stats.seconds, stats.rows, node.op_id,
                                strategy)
            )
            report.comp_seconds[location] += stats.seconds
            if node.kind == "write":
                report.rows_written += stats.rows
            # Pipelined work is interleaved batch by batch, so a
            # node's span is the per-node aggregate, anchored at run
            # start (see docs/observability.md); eager spans start
            # where the node did.
            self.tracer.record(
                node.label(), "op",
                start=self._starts.get(node.op_id, started),
                seconds=stats.seconds, op_id=node.op_id,
                kind=node.kind, location=location.name.lower(),
                rows=stats.rows, strategy=strategy,
            )
            observe_operation(
                self.metrics, node.kind, stats.seconds, stats.rows
            )
        report.peak_resident_rows = self.meter.peak_rows
        report.peak_resident_bytes = self.meter.peak_bytes
        apply_robustness(report, self._rstats)
        report.wall_seconds = time.perf_counter() - started
        report.critical_path_seconds = critical_path_seconds(
            self.program, report
        )
        return report

    # -- compiling the DAG into a batch network ---------------------------------

    def _endpoint(self, location: Location) -> DataEndpoint:
        return self.source if location is Location.SOURCE else self.target

    @staticmethod
    def _take(values: dict, consumed: set[tuple[int, int]],
              edge: Edge) -> tuple[tuple[int, int], tuple]:
        """Pop the value ``edge`` consumes, keyed by producer port.

        Raises:
            ProgramError: if the port never produced a value, or its
                value was already consumed by another edge.
        """
        key = (edge.producer.op_id, edge.output_index)
        try:
            value = values.pop(key)
        except KeyError as exc:
            if key in consumed:
                detail = "consumed twice"
            else:
                detail = (
                    "was never produced (malformed edge or missing "
                    "operation output)"
                )
            raise ProgramError(
                f"value for {edge.producer.label()} output "
                f"{edge.output_index} {detail}"
            ) from exc
        consumed.add(key)
        return key, value

    def _resume_point(self, node: Operation,
                      endpoint: DataEndpoint) -> tuple[bool, int]:
        """``(done, skip_through)`` of a Write under the journal.

        A write acknowledged by an earlier attempt is ``done``: its
        input is wired but never shipped or stored, so nothing
        upstream of it is re-shipped.  A partially-stored write into an
        endpoint that loads incrementally resumes mid-stream: batches
        up to the acknowledged high-water mark (``skip_through``)
        replay through the pipeline but bypass the wire and the store.
        """
        if not isinstance(node, Write) or self.journal is None:
            return False, -1
        jkey = write_key(node.op_id, node.fragment.name)
        if self.journal.write_done(jkey):
            return True, -1
        if getattr(endpoint, "incremental_writes", False):
            return False, self.journal.acked_through(jkey)
        return False, -1

    def _cross(self, edge: Edge, key: tuple[int, int],
               iterator: Iterator[RowBatch], is_columnar: bool,
               skip_through: int,
               monitor: "ExecutionMonitor | None" = None
               ) -> Iterator[RowBatch]:
        """Route a value across systems through the channel."""
        hop = is_columnar and self._wire_format
        if hop:
            # The wire moves serialized *rows*; hop to the row
            # representation around the ship and come back columnar
            # on the far side.
            iterator = (batch.to_row_batch() for batch in iterator)
        if self._prefetch_pool is not None:
            iterator = _Prefetch(iterator, self._prefetch_pool,
                                 self._abort)
        iterator = self._shipped(edge, key, iterator, skip_through,
                                 monitor)
        if hop:
            iterator = (
                ColumnBatch.from_row_batch(batch) for batch in iterator
            )
        return iterator

    def _build(self) -> list[tuple[Write, DataEndpoint,
                                   Iterator[RowBatch], int]]:
        """Wire every node's output iterators; return the Write drives
        (acknowledged writes get none — see :meth:`_resume_point`)."""
        streams: dict[tuple[int, int],
                      tuple[Iterator[RowBatch], Location, bool]] = {}
        consumed: set[tuple[int, int]] = set()
        drives: list[tuple[Write, DataEndpoint,
                           Iterator[RowBatch], int]] = []
        for node in self.program.topological_order():
            location = self.placement[node.op_id]
            self._locations[node.op_id] = location
            endpoint = self._endpoint(location)
            done, skip_through = self._resume_point(node, endpoint)
            inputs: list[Iterator[RowBatch]] = []
            input_columnar: list[bool] = []
            for edge in self.program.in_edges(node):
                key, (iterator, holder, is_columnar) = self._take(
                    streams, consumed, edge
                )
                if holder is not location and not done:
                    iterator = self._cross(
                        edge, key, iterator, is_columnar, skip_through
                    )
                inputs.append(iterator)
                input_columnar.append(is_columnar)
            if isinstance(node, Write):
                if not done:
                    drives.append(
                        (node, endpoint, inputs[0], skip_through)
                    )
                if input_columnar[0]:
                    self._strategies[node.op_id] = "columnar"
                continue
            outputs, columnar_out = self._stage(
                node, endpoint, inputs, input_columnar
            )
            for index, output in enumerate(outputs):
                streams[(node.op_id, index)] = (
                    output, location, columnar_out
                )
        self._leftovers = sorted(streams)
        return drives

    def _run_eager(self, monitor: "ExecutionMonitor | None") -> None:
        """Execute one operation at a time in topological order.

        ``monitor`` commits each node's location as it starts and is
        told about shipments and completions, so it may re-place the
        unstarted suffix between operations.  Values ship lazily at
        consume time against the location the consumer committed to,
        so suffix moves stay byte-identical.
        """
        values: dict[tuple[int, int],
                     tuple[list[RowBatch], Location, bool]] = {}
        consumed: set[tuple[int, int]] = set()
        for node in self.program.topological_order():
            if monitor is not None:
                location = monitor.op_started(node)
            else:
                location = self.placement[node.op_id]
            self._locations[node.op_id] = location
            self._starts[node.op_id] = time.perf_counter()
            endpoint = self._endpoint(location)
            done, skip_through = self._resume_point(node, endpoint)
            inputs: list[Iterator[RowBatch]] = []
            input_columnar: list[bool] = []
            for edge in self.program.in_edges(node):
                key, (batches, holder, is_columnar) = self._take(
                    values, consumed, edge
                )
                iterator: Iterator[RowBatch] = iter(batches)
                if done:
                    for batch in batches:
                        self.meter.release(
                            batch.row_count(), batch.estimated_size()
                        )
                elif holder is not location:
                    # Ship before the node runs, so the wire time
                    # stays out of the node's own seconds.
                    iterator = iter(list(self._cross(
                        edge, key, iterator, is_columnar,
                        skip_through, monitor,
                    )))
                inputs.append(iterator)
                input_columnar.append(is_columnar)
            columnar_out = False
            outputs: list[list[RowBatch]] = []
            if isinstance(node, Write):
                if not done:
                    self._drive_write(node, endpoint, inputs[0],
                                      skip_through)
                if input_columnar[0]:
                    self._strategies[node.op_id] = "columnar"
            else:
                streams, columnar_out = self._stage(
                    node, endpoint, inputs, input_columnar
                )
                outputs = [list(stream) for stream in streams]
            for index, batches in enumerate(outputs):
                values[(node.op_id, index)] = (
                    batches, location, columnar_out
                )
            if monitor is not None:
                stats = self._stats[node.op_id]
                monitor.op_finished(
                    node, location, stats.seconds, stats.rows,
                    self._strategies.get(node.op_id, "row"),
                )
        self._leftovers = sorted(values)

    def _stage(self, node: Operation, endpoint: DataEndpoint,
               inputs: list[Iterator[RowBatch]],
               input_columnar: list[bool]
               ) -> tuple[list[Iterator[RowBatch]], bool]:
        """The output iterators of a Scan, Combine or Split, and
        whether they carry columnar batches.

        Raises:
            ProgramError: on an unknown operation kind.
        """
        columnar_out = False
        if isinstance(node, Scan):
            columnar_out = (
                self.columnar and node.fragment.is_flat_storable()
            )
            outputs = [self._scan_batches(node, endpoint, columnar_out)]
        elif isinstance(node, Combine):
            columnar_out = (
                all(input_columnar) and node.result.is_flat_storable()
            )
            if columnar_out:
                outputs = [node.apply_column_batches(
                    inputs[0], inputs[1],
                    tick=self._ticker(node), meter=self.meter,
                    observe=self._join_observer(node),
                    force=self.join_strategy,
                )]
            else:
                outputs = [node.apply_batches(
                    self._as_rows(inputs[0], input_columnar[0]),
                    self._as_rows(inputs[1], input_columnar[1]),
                    tick=self._ticker(node), meter=self.meter,
                )]
        elif isinstance(node, Split):
            columnar_out = (
                input_columnar[0]
                and all(piece.is_flat_storable()
                        for piece in node.pieces)
            )
            if columnar_out:
                outputs = node.apply_column_batches(
                    inputs[0], tick=self._ticker(node),
                    meter=self.meter,
                )
            else:
                outputs = node.apply_batches(
                    self._as_rows(inputs[0], input_columnar[0]),
                    tick=self._ticker(node), meter=self.meter,
                )
        else:
            raise ProgramError(f"unknown operation kind {node.kind!r}")
        if columnar_out and not isinstance(node, Combine):
            self._strategies[node.op_id] = "columnar"
        elif columnar_out:
            # Pre-seed; the join observer overwrites with the strategy
            # actually selected once the build finishes.
            self._strategies[node.op_id] = self.join_strategy or "hash"
        return outputs, columnar_out

    def _ticker(self, node: Operation):
        def tick(seconds: float, rows: int) -> None:
            with self._lock:
                stats = self._stats[node.op_id]
                stats.seconds += seconds
                stats.rows += rows

        return tick

    def _join_observer(self, node: Combine):
        """Callback recording a columnar combine's join statistics."""

        def observe(strategy: str, build_rows: int,
                    probe_rows: int) -> None:
            with self._lock:
                self._strategies[node.op_id] = strategy
            observe_join(
                self.metrics, strategy, build_rows, probe_rows
            )

        return observe

    @staticmethod
    def _as_rows(iterator: Iterator[RowBatch],
                 is_columnar: bool) -> Iterator[RowBatch]:
        """Bridge a columnar stream back to row batches (fallback for
        operators whose output cannot stay flat)."""
        if not is_columnar:
            return iterator
        return (batch.to_row_batch() for batch in iterator)

    # -- per-kind batch stages -----------------------------------------------------

    def _scan_batches(self, node: Scan, endpoint: DataEndpoint,
                      columnar: bool = False) -> Iterator[RowBatch]:
        tick = self._ticker(node)
        batch_rows = self.batch_rows or sys.maxsize

        def generate() -> Iterator[RowBatch]:
            if columnar:
                stream = endpoint.scan_stream_columnar(
                    node.fragment, batch_rows
                )
            else:
                stream = endpoint.scan_stream(node.fragment, batch_rows)
            iterator = iter(stream)
            produced = False
            while True:
                started = time.perf_counter()
                try:
                    batch = next(iterator)
                except StopIteration:
                    tick(time.perf_counter() - started, 0)
                    if not produced and self.batch_rows is None:
                        # One batch per edge, even for an empty feed.
                        empty = RowBatch(node.fragment, [], 0)
                        yield (ColumnBatch.from_row_batch(empty)
                               if columnar else empty)
                    return
                produced = True
                tick(time.perf_counter() - started, batch.row_count())
                self.meter.acquire(
                    batch.row_count(), batch.estimated_size()
                )
                yield batch

        return generate()

    def _shipped(self, edge: Edge, key: tuple[int, int],
                 iterator: Iterator[RowBatch],
                 skip_through: int = -1,
                 monitor: "ExecutionMonitor | None" = None
                 ) -> Iterator[RowBatch]:
        report = self.report
        with self._lock:
            report.shipments += 1
            report.shipment_bytes.setdefault(key, 0)
            report.shipment_seconds.setdefault(key, 0.0)
            report.shipment_batches.setdefault(key, 0)
        link = None
        if self.retry is not None:
            link = ReliableBatchLink(
                self.channel, self.retry, self._rstats, edge=key,
                start_seq=skip_through + 1, tracer=self.tracer,
            )

        def account(shipment, batch: RowBatch,
                    started: float) -> None:
            with self._lock:
                report.comm_bytes += shipment.bytes_sent
                report.comm_seconds += shipment.seconds
                report.shipment_bytes[key] += shipment.bytes_sent
                report.shipment_seconds[key] += shipment.seconds
                report.shipment_batches[key] += 1
            self.tracer.record(
                f"ship {batch.fragment.name}", "ship",
                start=started, seconds=shipment.seconds,
                edge_op=key[0], edge_port=key[1], seq=batch.seq,
                bytes=shipment.bytes_sent,
                fragment=batch.fragment.name,
            )
            observe_shipment(
                self.metrics, shipment.bytes_sent, shipment.seconds
            )
            if monitor is not None:
                monitor.edge_shipped(edge, shipment)

        def generate() -> Iterator[RowBatch]:
            for batch in iterator:
                if batch.seq <= skip_through:
                    # Already stored by the consumer in an earlier
                    # attempt — replay it past the wire unshipped (the
                    # write skips it too).
                    yield batch
                    continue
                started = time.perf_counter()
                if link is not None:
                    shipment, delivered = link.send(batch)
                    account(shipment, batch, started)
                    yield from delivered
                else:
                    shipment = self.channel.ship_batch(batch)
                    account(shipment, batch, started)
                    yield batch
            if link is not None:
                yield from link.finish()

        return generate()

    def _drive_write(self, node: Write, endpoint: DataEndpoint,
                     batches: Iterator[RowBatch],
                     skip_through: int = -1) -> None:
        if self._abort.is_set():
            raise _AbortedRun("streaming run aborted")
        jkey = write_key(node.op_id, node.fragment.name)
        # Per-batch acknowledgements are only meaningful for endpoints
        # that store each batch as it arrives; a materializing endpoint
        # replaces the whole instance at end of stream, so a partial
        # run stored nothing and only the whole-write ack holds.
        incremental = (
            self.journal is not None
            and getattr(endpoint, "incremental_writes", False)
        )
        pull_seconds = 0.0
        rows_total = 0
        pending_release: tuple[int, int] | None = None
        pending_ack: int | None = None

        def instrumented() -> Iterator[RowBatch]:
            nonlocal pull_seconds, rows_total, pending_release, \
                pending_ack
            iterator = iter(batches)
            while True:
                # Resuming the pull means the endpoint finished
                # storing the previously yielded batch — acknowledge
                # it now, before anything else can fail.
                if pending_ack is not None:
                    self.journal.ack_batch(jkey, pending_ack)
                    pending_ack = None
                started = time.perf_counter()
                try:
                    batch = next(iterator)
                except StopIteration:
                    pull_seconds += time.perf_counter() - started
                    return
                pull_seconds += time.perf_counter() - started
                if pending_release is not None:
                    self.meter.release(*pending_release)
                    pending_release = None
                if batch.seq <= skip_through:
                    # Stored by an earlier attempt; don't load again.
                    self.meter.release(
                        batch.row_count(), batch.estimated_size()
                    )
                    continue
                pending_release = (
                    batch.row_count(), batch.estimated_size()
                )
                if incremental:
                    pending_ack = batch.seq
                rows_total += batch.row_count()
                yield batch

        started = time.perf_counter()
        endpoint.write_stream(
            node.fragment, FragmentStream(node.fragment, instrumented())
        )
        elapsed = (time.perf_counter() - started) - pull_seconds
        if pending_release is not None:
            self.meter.release(*pending_release)
        if self.journal is not None:
            if pending_ack is not None:
                self.journal.ack_batch(jkey, pending_ack)
            self.journal.ack_write(jkey)
        self._ticker(node)(max(elapsed, 0.0), rows_total)
