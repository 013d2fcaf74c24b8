"""Each workload, at test-sized inputs, end to end through the
benchmark's own measurement: correct results, only measured wires,
and layer self-times that account for every traced exchange."""

import json
import re
from pathlib import Path

import pytest

import repro.net.transport as transport_module
import run
from spantree import check_accounting
from speed import SpeedProbe
from workloads import DeltaResync, ServiceWarm, WORKLOADS, XmarkBulk

BENCH = Path(__file__).resolve().parent.parent
ALLOWED_WIRES = {("InProcessTransport", True), ("TcpTransport", True)}


def small(name):
    if name == "xmark-bulk":
        return XmarkBulk(seed=3, document_bytes=12_000)
    if name == "service-warm":
        return ServiceWarm(seed=3, document_bytes=8_000, min_sessions=4)
    return DeltaResync(seed=3, document_bytes=12_000, cycles=2)


@pytest.fixture
def no_simulated_channel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a SimulatedChannel was created")

    monkeypatch.setattr(transport_module.SimulatedChannel, "__init__",
                        refuse)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_is_correct_and_accounted(name, no_simulated_channel):
    result = small(name).run(0.2, trace=True)
    assert result.failed == 0, result.failures
    assert result.attempted > 0
    assert result.traced_units > 0
    assert result.speed.slowdowns
    assert set(result.end_to_end) == set(run.END_TO_END) - {
        "setup_s", "peak_rss_mb"}

    spans = result.tracing.recorder.snapshot()
    wires = {(span.attrs["transport"], span.attrs["wire_format"])
             for span in spans if span.name == "ship"}
    assert wires and wires <= ALLOWED_WIRES

    exchanges = result.tracing.recorder.roots("exchange")
    assert exchanges
    for exchange in exchanges:
        assert check_accounting(exchange).ok

    metrics, unaccounted = run.per_layer_metrics(result)
    assert not unaccounted
    assert set(metrics) == set(run.PER_LAYER) | set(run.DERIVED_LAYER)
    covered = metrics["exchange.wall_s"] - metrics["program.self_s"]
    assert 0 < covered <= metrics["exchange.wall_s"]


def test_service_sessions_use_their_clients_connections():
    result = small("service-warm").run(0.2, trace=True)
    assert result.failed == 0, result.failures
    assert result.plan_cache_hits > 0
    assert result.plan_cache_misses == 0  # warmed by the reference


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == dict(run.END_TO_END)
    layers = {name: (unit, better)
              for name, (unit, better, *_) in run.PER_LAYER.items()}
    layers.update(run.DERIVED_LAYER)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == layers
    assert spec["paths"] == ["perfbench"]


def test_speed_probe_is_independent_of_the_program():
    probe = SpeedProbe()
    assert probe.sample() > 0
    assert probe.median_slowdown() == probe.slowdowns[0]
    # The kernel must not speed up with the program it normalizes.
    assert not re.search(r"\b(from|import) repro\b",
                         (BENCH / "speed.py").read_text())


def test_no_modelled_seconds_are_read():
    """The benchmark times everything itself: it never reads the
    outcome's step seconds, load-report latencies, the simulator or a
    simulated channel."""
    forbidden = re.compile(
        r"total_seconds|\.steps\b|LoadReport|repro\.sim\b|"
        r"SimulatedChannel|data_processing_seconds|wall_seconds"
    )
    for path in BENCH.glob("*.py"):
        text = path.read_text()
        assert not forbidden.search(text), path.name


@pytest.mark.parametrize("knobs", [
    {"batch_rows": 16},
    {"batch_rows": 16, "columnar": True},
], ids=["row-stream", "columnar"])
def test_streaming_dataplanes_stay_accounted(knobs):
    """Under a streaming dataplane the combine work happens in lazy
    iterators; it must still land in the combine layer, and the layer
    self-times must still add up to the exchange's wall."""
    from instrument import Tracing
    from repro.core.cost.estimates import StatisticsCatalog
    from repro.core.cost.model import CostModel
    from repro.net.transport import InProcessTransport
    from repro.services.agency import DiscoveryAgency
    from repro.services.endpoint import RelationalEndpoint
    from repro.services.exchange import run_optimized_exchange
    from repro.workloads.xmark import (
        generate_xmark_document,
        xmark_lf_fragmentation,
        xmark_mf_fragmentation,
        xmark_schema,
    )

    schema = xmark_schema()
    mf, lf = xmark_mf_fragmentation(schema), xmark_lf_fragmentation(schema)
    source = RelationalEndpoint("src", mf)
    source.load_document(generate_xmark_document(8_000, seed=1,
                                                 schema=schema))
    agency = DiscoveryAgency(schema)
    agency.register("src", mf, source)
    agency.register("tgt", lf)
    plan = agency.negotiate(
        "src", "tgt", probe=CostModel(StatisticsCatalog.synthetic(schema)))
    tracing = Tracing()
    target = RelationalEndpoint("tgt", lf)
    with tracing.active(), tracing.span("exchange"):
        run_optimized_exchange(
            plan.annotate(), plan.placement, tracing.endpoint(source),
            tracing.endpoint(target),
            tracing.transport(InProcessTransport(wire_format=True)),
            "MF->LF", **knobs)
    (root,) = tracing.recorder.roots("exchange")
    assert check_accounting(root).ok
    combines = [span for span in tracing.recorder.snapshot()
                if span.name == "combine"]
    assert sum(span.counts.get("rows_out", 0) for span in combines) > 0
    assert any(span.parent is not None and span.parent.name != "exchange"
               for span in combines), "combine pulled by a downstream layer"
