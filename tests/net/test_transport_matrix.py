"""The pluggable transport stack: all three implementations are
drop-in interchangeable behind ``Transport``, with uniform lifecycle
(idempotent close, send-after-close errors) and byte-identical
end-to-end results — TcpTransport over a real loopback socket."""

import socket
import threading

import pytest

from repro.errors import SoapFault, TransportError
from repro.core.mapping import derive_mapping
from repro.core.optimizer.placement import source_heavy_placement
from repro.core.stream import RowBatch
from repro.core.program.builder import build_transfer_program
from repro.net.server import FeedSink
from repro.net.soap import read_feed_header, soap_envelope
from repro.net.transport import (
    InProcessTransport,
    LOOPBACK_PROFILE,
    SimulatedChannel,
    TcpTransport,
    Transport,
    recv_frame,
    send_frame,
)
from repro.relational.publisher import publish_document
from repro.services.endpoint import RelationalEndpoint
from repro.obs.metrics import MetricsRegistry
from repro.services.exchange import (
    run_optimized_exchange,
    run_publish_and_map,
)
from repro.workloads.customer import fragment_customers
from repro.xmlkit.tree import Element
from tests.program.test_streaming import (
    scans_at_source,
    without_mailboxes,
)


@pytest.fixture
def feed(customers_s, customer_documents):
    return fragment_customers(customer_documents, customers_s)["Order"]


@pytest.fixture
def whole(feed):
    """The whole feed as one message (what ``batch_rows=None`` ships)."""
    return RowBatch(feed.fragment, feed.rows, 0)


@pytest.fixture(scope="module")
def sink():
    with FeedSink() as live:
        yield live


def make_transport(kind, sink):
    if kind == "sim":
        return SimulatedChannel(wire_format=True)
    if kind == "inproc":
        return InProcessTransport(wire_format=True)
    return TcpTransport.connect(sink.host, sink.port)


TRANSPORTS = ("sim", "inproc", "tcp")


class TestUniformLifecycle:
    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_close_is_idempotent(self, kind, sink):
        transport = make_transport(kind, sink)
        assert not transport.closed
        transport.close()
        transport.close()
        assert transport.closed

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_send_after_close_raises_uniformly(self, kind, sink, whole):
        transport = make_transport(kind, sink)
        transport.close()
        with pytest.raises(TransportError, match="send after close"):
            transport.ship_batch(whole)
        with pytest.raises(TransportError, match="send after close"):
            transport.ship_document("x")
        with pytest.raises(TransportError, match="send after close"):
            transport.charge_lost(10)

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_concurrent_close_runs_on_close_once(self, kind, sink,
                                                 monkeypatch):
        transport = make_transport(kind, sink)
        calls = []
        original = transport._on_close

        def counting():
            calls.append(1)
            original()

        monkeypatch.setattr(transport, "_on_close", counting)
        threads = [
            threading.Thread(target=transport.close)
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert calls == [1]

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_concurrent_shipping_accounts_every_message(
            self, kind, sink, feed):
        transport = make_transport(kind, sink)
        errors = []

        def ship():
            try:
                for _ in range(5):
                    transport.ship_document("y" * 100)
            except Exception as exc:  # pragma: no cover - fails test
                errors.append(exc)

        threads = [threading.Thread(target=ship) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert transport.messages == 20
        transport.close()


class TestInProcessTransport:
    def test_zero_time_but_counted_bytes(self, whole):
        transport = InProcessTransport()
        shipment = transport.ship_batch(whole)
        assert shipment.seconds == 0.0
        assert transport.total_seconds == 0.0
        assert transport.total_bytes == shipment.bytes_sent > 0
        assert transport.transfer_cost(10**9) == 0.0

    def test_wire_format_round_trip(self, feed, whole):
        transport = InProcessTransport(wire_format=True)
        rows_before = feed.row_count()
        transport.ship_batch(whole)
        assert feed.row_count() == rows_before


class TestTcpTransport:
    def test_connect_failure_is_transport_error(self):
        with pytest.raises(TransportError, match="cannot connect"):
            TcpTransport.connect("127.0.0.1", 1, timeout=0.2)

    def test_wire_format_always_on(self, sink):
        transport = TcpTransport.connect(sink.host, sink.port)
        assert transport.wire_format is True
        transport.close()

    def test_measured_seconds_and_counted_bytes(self, sink, feed, whole):
        transport = TcpTransport.connect(sink.host, sink.port)
        shipment = transport.ship_batch(whole)
        assert shipment.bytes_sent > feed.feed_size()  # SOAP overhead
        assert shipment.seconds > 0.0  # real wall time
        assert transport.total_bytes == shipment.bytes_sent
        transport.close()

    def test_transfer_cost_answers_from_profile(self, sink):
        transport = TcpTransport.connect(sink.host, sink.port)
        expected = (
            LOOPBACK_PROFILE.latency_seconds
            + 1000 / LOOPBACK_PROFILE.bandwidth_bytes_per_second
        )
        assert transport.transfer_cost(1000) == pytest.approx(expected)
        transport.close()

    def test_rows_replaced_with_decoded_wire_rows(self, sink, feed, whole):
        transport = TcpTransport.connect(sink.host, sink.port)
        eids_before = sorted(row.eid for row in feed.rows)
        transport.ship_batch(whole)
        assert sorted(row.eid for row in feed.rows) == eids_before
        transport.close()


class _StubSink:
    """Replies to every frame with an ``Ack`` of the sent feed, after
    ``tamper`` edits its attributes."""

    def __init__(self, tamper):
        self.tamper = tamper
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        conn, _ = self.listener.accept()
        with conn:
            while (frame := recv_frame(conn)) is not None:
                header = read_feed_header(frame.decode("utf-8"))
                attrs = {"of": "FragmentFeed",
                         "fragment": header.fragment,
                         "count": str(header.count),
                         "checksum": header.checksum}
                if header.seq is not None:
                    attrs["seq"] = str(header.seq)
                self.tamper(attrs)
                send_frame(conn, soap_envelope(
                    Element("Ack", attrs)).encode("utf-8"))

    def connect(self):
        return TcpTransport.connect(*self.listener.getsockname()[:2])

    def close(self):
        self.listener.close()
        self.thread.join(timeout=5)


class TestTcpAckVerification:
    """The sender checks that the receiver verified what was sent."""

    def _ship(self, feed, tamper):
        stub = _StubSink(tamper)
        transport = stub.connect()
        try:
            transport.ship_batch(RowBatch(feed.fragment, feed.rows, 3))
        finally:
            transport.close()
            stub.close()

    def test_matching_ack_accepted(self, feed):
        self._ship(feed, lambda attrs: None)

    @pytest.mark.parametrize("name,value", [
        ("checksum", "deadbeef"), ("count", "0"), ("fragment", "Other"),
        ("seq", "4"), ("of", "Document"),
    ])
    def test_mismatched_ack_is_fault(self, feed, name, value):
        with pytest.raises(SoapFault, match="receiver replied"):
            self._ship(feed, lambda attrs: attrs.update({name: value}))

    def test_ack_without_seq_is_fault(self, feed):
        with pytest.raises(SoapFault, match="seq"):
            self._ship(feed, lambda attrs: attrs.pop("seq"))


class TestEndToEndInterchangeability:
    """The Figure 9 acceptance bar: the same exchange over all three
    transports leaves byte-identical target stores."""

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_exchange_matches_reference(
            self, kind, sink, auction_mf, auction_lf,
            auction_document):
        source = RelationalEndpoint(f"S-{kind}", auction_mf)
        source.load_document(auction_document)
        program = build_transfer_program(
            derive_mapping(auction_mf, auction_lf)
        )
        placement = source_heavy_placement(program)

        reference_target = RelationalEndpoint("ref", auction_lf)
        run_optimized_exchange(
            program, placement, source, reference_target,
            SimulatedChannel(), "reference",
        )
        reference = publish_document(
            reference_target.db, reference_target.mapper
        ).document

        transport = make_transport(kind, sink)
        assert isinstance(transport, Transport)
        target = RelationalEndpoint(f"T-{kind}", auction_lf)
        outcome = run_optimized_exchange(
            program, placement, source, target, transport,
            f"mf->lf/{kind}",
        )
        transport.close()
        document = publish_document(target.db, target.mapper).document
        assert document == reference
        assert outcome.rows_written == target.total_rows()
        assert outcome.comm_bytes == transport.total_bytes > 0

    @pytest.mark.parametrize("kind", TRANSPORTS)
    def test_streaming_exchange_matches_too(
            self, kind, sink, auction_mf, auction_lf,
            auction_document):
        source = RelationalEndpoint(f"SS-{kind}", auction_mf)
        source.load_document(auction_document)
        program = build_transfer_program(
            derive_mapping(auction_mf, auction_lf)
        )
        placement = source_heavy_placement(program)
        reference_target = RelationalEndpoint("sref", auction_lf)
        run_optimized_exchange(
            program, placement, source, reference_target,
            SimulatedChannel(), "reference",
        )
        reference = publish_document(
            reference_target.db, reference_target.mapper
        ).document

        transport = make_transport(kind, sink)
        target = RelationalEndpoint(f"ST-{kind}", auction_lf)
        run_optimized_exchange(
            program, placement, source, target, transport,
            f"stream/{kind}", batch_rows=16,
        )
        transport.close()
        document = publish_document(target.db, target.mapper).document
        assert document == reference


class TestEmptyFeedOverTcp:
    def test_sink_acks_empty_feed_and_target_matches_pm(
            self, auction_mf, auction_lf, auction_document):
        """One batch per edge sends an empty feed as one message: the
        sink verifies and acks it, and the exchanged target publishes
        the publish&map document."""
        source = without_mailboxes(auction_mf, auction_document)
        assert source.scan(auction_mf.fragment("mailbox")).rows == []
        program = build_transfer_program(
            derive_mapping(auction_mf, auction_lf)
        )
        placement = scans_at_source(program)
        registry = MetricsRegistry()
        target = RelationalEndpoint("T-empty", auction_lf)
        with FeedSink(metrics=registry) as live:
            transport = TcpTransport.connect(live.host, live.port)
            outcome = run_optimized_exchange(
                program, placement, source, target, transport,
                "empty-feed/tcp",
            )
            transport.close()
        cross = program.cross_edges(placement)
        assert outcome.report.shipment_batches == {
            (edge.producer.op_id, edge.output_index): 1
            for edge in cross
        }
        assert registry.counter("server.feeds").value == len(cross)
        assert registry.counter("server.faults").value == 0

        pm_target = RelationalEndpoint("PM-empty", auction_lf)
        run_publish_and_map(source, pm_target, SimulatedChannel())
        assert publish_document(target.db, target.mapper).document == \
            publish_document(pm_target.db, pm_target.mapper).document
