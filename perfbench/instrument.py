"""Spans around the public calls into each layer of the exchange.

The program under test is not edited: a traced run wraps what it hands
to the program (endpoints and transports, through delegating proxies)
and, while :func:`layer_patches` is active, replaces a few public
callables with wrappers that record a span and then call the original:

========================  =============================================
span                      wrapped call
========================  =============================================
``scan``                  endpoint ``scan``/``scan_stream``/
                          ``scan_stream_columnar``
``write``                 endpoint ``write``/``write_stream``
``delta.merge``           endpoint ``merge_rows``/``delete_rows``
``index``                 endpoint ``build_indexes``
``ship``                  transport ``ship_fragment``/``ship_batch``/
                          ``ship_document``
``soap.encode``/          ``wrap_fragment_feed``/``unwrap_fragment_feed``
``soap.decode``           as :mod:`repro.net.transport` looks them up
``combine``/``split``     ``Combine``/``Split`` ``apply*`` methods
``publish``/``shred``/    ``publish_document``/``shred_document``/
``delta.compute``         ``compute_delta`` as :mod:`repro.services.
                          exchange` looks them up
``load``                  ``ShredResult.load_into``
``negotiate``             ``DiscoveryAgency.negotiate``
``exchange``              ``run_optimized_exchange`` as the broker
                          looks it up (sessions the broker runs)
========================  =============================================

The streaming ``apply_batches``/``apply_column_batches`` methods and
the streaming scans return lazy iterators; their ``__next__`` is
wrapped too, so the work a batch does is charged to its layer however
the executor pulls it.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterator
from contextlib import contextmanager

import repro.net.transport as transport_module
import repro.services.broker as broker_module
import repro.services.exchange as exchange_module
from repro.core.ops.combine import Combine
from repro.core.ops.split import Split
from repro.core.stream import FragmentStream
from repro.relational.shredder import ShredResult
from repro.services.agency import DiscoveryAgency

from spantree import Span, SpanRecorder


class TracedIterator:
    """Records one span per ``__next__`` of a wrapped iterator.

    ``count`` receives the span and each produced item; the pull that
    ends the iteration is recorded too, since it may still do work
    (flushing a buffer, checking for orphans).
    """

    __slots__ = ("_recorder", "_name", "_inner", "_count")

    def __init__(self, recorder: SpanRecorder, name: str,
                 inner: Iterator,
                 count: Callable[[Span, object], None] | None = None
                 ) -> None:
        self._recorder = recorder
        self._name = name
        self._inner = inner
        self._count = count

    def __iter__(self) -> "TracedIterator":
        return self

    def __next__(self) -> object:
        with self._recorder.span(self._name) as span:
            item = next(self._inner)
            if self._count is not None:
                self._count(span, item)
        return item


def _count_rows(key: str) -> Callable[[Span, object], None]:
    def count(span: Span, item: object) -> None:
        span.add(key, item.row_count())
    return count


def _traced_stream(recorder: SpanRecorder, name: str,
                   stream: FragmentStream, key: str) -> FragmentStream:
    return FragmentStream(
        stream.fragment,
        TracedIterator(recorder, name, iter(stream), _count_rows(key)),
    )


class TracedEndpoint:
    """Delegating endpoint proxy: data calls become spans, everything
    else (attributes, statistics, versioning) passes through."""

    def __init__(self, endpoint: object, recorder: SpanRecorder) -> None:
        self._endpoint = endpoint
        self._recorder = recorder

    def __getattr__(self, name: str) -> object:
        return getattr(self._endpoint, name)

    def __repr__(self) -> str:
        return f"<TracedEndpoint over {self._endpoint!r}>"

    def scan(self, fragment):
        with self._recorder.span("scan") as span:
            instance = self._endpoint.scan(fragment)
            span.add("rows", instance.row_count())
        return instance

    def scan_stream(self, fragment, *args, **kwargs):
        with self._recorder.span("scan"):
            stream = self._endpoint.scan_stream(fragment, *args, **kwargs)
        return _traced_stream(self._recorder, "scan", stream, "rows")

    def scan_stream_columnar(self, fragment, *args, **kwargs):
        with self._recorder.span("scan"):
            stream = self._endpoint.scan_stream_columnar(
                fragment, *args, **kwargs
            )
        return _traced_stream(self._recorder, "scan", stream, "rows")

    def write(self, fragment, instance):
        with self._recorder.span("write") as span:
            self._endpoint.write(fragment, instance)
            span.add("rows", instance.row_count())

    def write_stream(self, fragment, stream):
        with self._recorder.span("write") as span:
            def counted() -> Iterator:
                for batch in stream:
                    span.add("rows", batch.row_count())
                    yield batch

            self._endpoint.write_stream(
                fragment, FragmentStream(stream.fragment, counted())
            )

    def merge_rows(self, fragment, rows):
        with self._recorder.span("delta.merge") as span:
            merged = self._endpoint.merge_rows(fragment, rows)
            span.add("rows", len(rows))
        return merged

    def delete_rows(self, fragment, eids):
        with self._recorder.span("delta.merge") as span:
            deleted = self._endpoint.delete_rows(fragment, eids)
            span.add("rows", deleted)
        return deleted

    def build_indexes(self):
        with self._recorder.span("index") as span:
            built = self._endpoint.build_indexes()
            span.add("count", built)
        return built


class TracedTransport:
    """Delegating transport proxy: each send is a ``ship`` span that
    names the transport it went over."""

    def __init__(self, transport: object, recorder: SpanRecorder) -> None:
        self._transport = transport
        self._recorder = recorder
        self._label = {
            "transport": type(transport).__name__,
            "wire_format": bool(getattr(transport, "wire_format", False)),
        }

    def __getattr__(self, name: str) -> object:
        return getattr(self._transport, name)

    def __repr__(self) -> str:
        return f"<TracedTransport over {self._transport!r}>"

    def _ship(self, method: str, payload: object) -> object:
        with self._recorder.span("ship", **self._label) as span:
            shipment = getattr(self._transport, method)(payload)
            span.add("messages", 1)
        return shipment

    def ship_fragment(self, instance):
        return self._ship("ship_fragment", instance)

    def ship_batch(self, batch):
        return self._ship("ship_batch", batch)

    def ship_document(self, text):
        return self._ship("ship_document", text)


def _wrap(recorder: SpanRecorder, name: str, function: Callable,
          after: Callable[[Span, object], object] | None = None
          ) -> Callable:
    """``function`` inside a span; ``after(span, result)`` may count on
    the span and returns the (possibly wrapped) result."""

    @functools.wraps(function)
    def traced(*args, **kwargs):
        with recorder.span(name) as span:
            result = function(*args, **kwargs)
            if after is not None:
                result = after(span, result)
        return result

    return traced


def _rows_of(key: str) -> Callable[[Span, object], object]:
    def after(span: Span, result):
        span.add(key, result.row_count())
        return result
    return after


def _rows_of_all(key: str) -> Callable[[Span, object], object]:
    def after(span: Span, result):
        span.add(key, sum(piece.row_count() for piece in result))
        return result
    return after


def _lazy(recorder: SpanRecorder, name: str
          ) -> Callable[[Span, object], object]:
    def after(span: Span, result):
        return TracedIterator(recorder, name, result,
                              _count_rows("rows_out"))
    return after


def _lazy_each(recorder: SpanRecorder, name: str
               ) -> Callable[[Span, object], object]:
    def after(span: Span, result):
        return [
            TracedIterator(recorder, name, piece, _count_rows("rows_out"))
            for piece in result
        ]
    return after


def _count_value(key: str) -> Callable[[Span, object], object]:
    def after(span: Span, result):
        span.add(key, result)
        return result
    return after


def _count_len(key: str) -> Callable[[Span, object], object]:
    def after(span: Span, result):
        span.add(key, len(result))
        return result
    return after


def _count_delta(span: Span, result):
    span.add("shipped_rows", result.shipped_rows)
    span.add("total_rows", result.total_rows)
    return result


def _patch_table(recorder: SpanRecorder) -> list[tuple[object, str, Callable]]:
    """(owner, attribute, wrapper factory) for every patched callable."""
    return [
        (Combine, "apply", lambda f: _wrap(
            recorder, "combine", f, _rows_of("rows_out"))),
        (Combine, "apply_batches", lambda f: _wrap(
            recorder, "combine", f, _lazy(recorder, "combine"))),
        (Combine, "apply_column_batches", lambda f: _wrap(
            recorder, "combine", f, _lazy(recorder, "combine"))),
        (Split, "apply", lambda f: _wrap(
            recorder, "split", f, _rows_of_all("rows_out"))),
        (Split, "apply_batches", lambda f: _wrap(
            recorder, "split", f, _lazy_each(recorder, "split"))),
        (Split, "apply_column_batches", lambda f: _wrap(
            recorder, "split", f, _lazy_each(recorder, "split"))),
        (transport_module, "wrap_fragment_feed", lambda f: _wrap(
            recorder, "soap.encode", f, _count_len("bytes"))),
        (transport_module, "unwrap_fragment_feed", lambda f: _wrap(
            recorder, "soap.decode", f)),
        (exchange_module, "publish_document", lambda f: _wrap(
            recorder, "publish", f)),
        (exchange_module, "shred_document", lambda f: _wrap(
            recorder, "shred", f)),
        (exchange_module, "compute_delta", lambda f: _wrap(
            recorder, "delta.compute", f, _count_delta)),
        (ShredResult, "load_into", lambda f: _wrap(
            recorder, "load", f, _count_value("rows"))),
        (DiscoveryAgency, "negotiate", lambda f: _wrap(
            recorder, "negotiate", f)),
        (broker_module, "run_optimized_exchange", lambda f: _wrap(
            recorder, "exchange", f)),
    ]


@contextmanager
def layer_patches(recorder: SpanRecorder) -> Iterator[None]:
    """Install the layer wrappers for the enclosed block, then restore
    the originals."""
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attribute, factory in _patch_table(recorder):
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, factory(original))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


class Tracing:
    """The traced half of a run: one recorder, the proxies that feed it
    and the patches that are active while a traced unit runs."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()

    def endpoint(self, endpoint: object) -> TracedEndpoint:
        return TracedEndpoint(endpoint, self.recorder)

    def transport(self, transport: object) -> TracedTransport:
        return TracedTransport(transport, self.recorder)

    def span(self, name: str, **attrs: object):
        return self.recorder.span(name, **attrs)

    def active(self):
        return layer_patches(self.recorder)
