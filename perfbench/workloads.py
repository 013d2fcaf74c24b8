"""The three workloads of the exchange benchmark.

Each workload builds its inputs from the seed in :meth:`setup`, then
runs units of work until its time is up.  A unit is the workload's
natural repetition: one *round* of the four Figure 9 scenarios, one
broker *session*, or one *epoch* of delta re-syncs.  Every unit runs
the program only through its public entry points with default options
(no dataplane knob is passed), times it with the benchmark's own
clock, and checks the result against a reference outside the timed
region.

With tracing, units alternate between untraced and traced runs of the
same work: the untraced ones give the end-to-end numbers, the traced
ones the per-layer self-times, and the two together the tracing
overhead.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.core.cost.estimates import StatisticsCatalog
from repro.core.cost.model import CostModel
from repro.core.delta import endpoint_digest
from repro.core.program.journal import ExchangeJournal
from repro.net.server import ExchangeServer, SoapHttpClient
from repro.net.transport import InProcessTransport, TcpTransport
from repro.relational.publisher import publish_document
from repro.services.agency import DiscoveryAgency
from repro.services.broker import ExchangeBroker, PlanCache
from repro.services.endpoint import RelationalEndpoint
from repro.services.exchange import (
    run_optimized_exchange,
    run_publish_and_map,
)
from repro.workloads.mutate import mutate_endpoint
from repro.workloads.sizes import DEFAULT_SCALE, scaled_bytes
from repro.workloads.xmark import (
    generate_xmark_document,
    xmark_lf_fragmentation,
    xmark_mf_fragmentation,
    xmark_schema,
)

from instrument import Tracing
from speed import SpeedProbe

clock = time.perf_counter

#: Figure 9's four exchange scenarios.
SCENARIOS = ("MF->MF", "MF->LF", "LF->MF", "LF->LF")
#: The 25 MB ladder entry at the default scale: about 500 KB.
BULK_BYTES = scaled_bytes(25.0, DEFAULT_SCALE)
#: Document each service session moves.
SESSION_BYTES = 40_000
#: Concurrent closed-loop clients on the service workload (one per core
#: of the reference machine); the broker runs as many workers.
CLIENTS = 2
#: Sessions the service workload needs so that ten lie beyond p90.
MIN_SESSIONS = 100
#: Delta re-sync cycles per epoch, and what each cycle changes.
RESYNC_CYCLES = 10
UPDATE_FRACTION = 0.05
DELETE_FRACTION = 0.01
#: How often set-up is repeated; the median is reported.
SETUP_REPEATS = 9
#: The service run alternates this many session phases with PM
#: baseline phases, which get this share of the time.  Short phases
#: let the speed samples around each follow the host's drift.
SERVICE_PHASES = 12
PM_SHARE = 0.1
#: Fewest PM baselines per PM phase.
PM_MIN_RUNS = 3
#: PM baselines per delta-resync epoch, spread over its cycles so that
#: they sample the whole run rather than its epoch ends.
PM_PER_EPOCH = 3

#: On workloads without delta, every re-sync is a full exchange, so it
#: ships exactly the bytes of a full exchange.
FULL_RESYNC_BYTES_RATIO = 1.0


def median(values):
    return statistics.median(values)


def p90(values):
    """90th percentile, interpolated between closest ranks."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def published(endpoint: RelationalEndpoint) -> str:
    """The document an endpoint publishes (the PM reference view)."""
    return publish_document(endpoint.db, endpoint.mapper).document


def in_process_wire() -> InProcessTransport:
    """The data path of the in-process workloads: every fragment feed
    is SOAP-encoded and decoded, no modelled time is charged."""
    return InProcessTransport(wire_format=True)


@dataclass
class RunResult:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    setup_s: float = 0.0
    #: End-to-end metrics from the untraced units.
    end_to_end: dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics from the traced units (trace runs only).
    per_layer: dict[str, float] = field(default_factory=dict)
    #: Sample counts behind the numbers, for the printed tables.
    samples: dict[str, int] = field(default_factory=dict)
    #: The unit per-layer numbers are normalized by.
    unit: str = ""
    tracing: Tracing | None = None
    traced_units: int = 0
    #: Walls of the same work run untraced and traced.
    untraced_wall: float = 0.0
    traced_wall: float = 0.0
    #: Plan-cache lookups during the traced units.
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: Host speed, sampled before every timed operation and set-up.
    speed: SpeedProbe = field(default_factory=SpeedProbe)

    def fail(self, what: str, exc: BaseException | str) -> None:
        self.failed += 1
        detail = exc if isinstance(exc, str) else \
            f"{type(exc).__name__}: {exc}"
        self.failures.append(f"{what}: {detail}")


def median_setup(build, teardown, speed: SpeedProbe,
                 repeats: int = SETUP_REPEATS):
    """Build the state ``repeats`` times; keep the last one and return
    it with the median build time, in reference seconds."""
    seconds = []
    state = None
    for _ in range(repeats):
        if state is not None:
            teardown(state)
        slowdown = speed.sample()
        gc.collect()
        started = clock()
        state = build()
        elapsed = clock() - started
        seconds.append(elapsed / speed.across(slowdown))
    return state, median(seconds)


def _keep_going(started: float, seconds: float, unit_seconds: list[float]
                ) -> bool:
    """Start another unit only if it is expected to end in time."""
    if not unit_seconds:
        return True
    return clock() - started + median(unit_seconds) <= seconds


class _Layers:
    """Wrapping helpers that are identities on untraced units."""

    def __init__(self, tracing: Tracing | None) -> None:
        self.tracing = tracing

    def endpoint(self, endpoint):
        return endpoint if self.tracing is None \
            else self.tracing.endpoint(endpoint)

    def transport(self, transport):
        return transport if self.tracing is None \
            else self.tracing.transport(transport)

    def span(self, name: str):
        return nullcontext() if self.tracing is None \
            else self.tracing.span(name)

    def active(self):
        return nullcontext() if self.tracing is None \
            else self.tracing.active()


# -- xmark-bulk ---------------------------------------------------------------


@dataclass
class BulkState:
    schema: object
    fragmentations: dict
    sources: dict
    probe: CostModel


class XmarkBulk:
    """Figure 9: per round, each scenario runs one cold DE exchange
    (fresh agency, synthetic cost probe) and then PM on the same pair;
    the DE target must publish the same document as the PM target."""

    name = "xmark-bulk"
    unit = "round"

    def __init__(self, seed: int, document_bytes: int = BULK_BYTES) -> None:
        self.seed = seed
        self.document_bytes = document_bytes

    def setup(self) -> BulkState:
        schema = xmark_schema()
        fragmentations = {
            "MF": xmark_mf_fragmentation(schema),
            "LF": xmark_lf_fragmentation(schema),
        }
        document = generate_xmark_document(
            self.document_bytes, seed=self.seed, schema=schema
        )
        sources = {}
        for kind, fragmentation in fragmentations.items():
            source = RelationalEndpoint(f"bulk-src-{kind}", fragmentation)
            source.load_document(document)  # also gathers statistics
            sources[kind] = source
        probe = CostModel(StatisticsCatalog.synthetic(schema))
        return BulkState(schema, fragmentations, sources, probe)

    def teardown(self, state: BulkState) -> None:
        pass

    def _round(self, state: BulkState, result: RunResult,
               tracing: Tracing | None) -> dict | None:
        """One round; returns its samples, or None if any part of it
        failed."""
        layers = _Layers(tracing)
        samples = {"de_wall": [], "pm_wall": [], "de_bytes": [],
                   "doc_bytes": []}
        complete = True
        for scenario in SCENARIOS:
            source_kind, target_kind = scenario.split("->")
            source = state.sources[source_kind]
            target_fragmentation = state.fragmentations[target_kind]
            agency = DiscoveryAgency(state.schema)
            agency.register("src", state.fragmentations[source_kind],
                            source)
            agency.register("tgt", target_fragmentation)

            de_target = RelationalEndpoint(f"bulk-de-{target_kind}",
                                           target_fragmentation)
            de_channel = in_process_wire()
            result.attempted += 1
            slowdown = result.speed.sample()
            gc.collect()
            try:
                with layers.active():
                    started = clock()
                    plan = agency.negotiate("src", "tgt",
                                            probe=state.probe)
                    with layers.span("exchange"):
                        run_optimized_exchange(
                            plan.annotate(), plan.placement,
                            layers.endpoint(source),
                            layers.endpoint(de_target),
                            layers.transport(de_channel), scenario,
                        )
                    de_wall = clock() - started
            except Exception as exc:  # noqa: BLE001 - counted
                result.fail(f"{scenario} DE", exc)
                complete = False
                continue
            de_wall /= result.speed.across(slowdown)

            pm_target = RelationalEndpoint(f"bulk-pm-{target_kind}",
                                           target_fragmentation)
            pm_channel = in_process_wire()
            result.attempted += 1
            slowdown = result.speed.sample()
            gc.collect()
            try:
                with layers.active():
                    started = clock()
                    with layers.span("pm"):
                        run_publish_and_map(
                            layers.endpoint(source),
                            layers.endpoint(pm_target),
                            layers.transport(pm_channel), scenario,
                        )
                    pm_wall = clock() - started
            except Exception as exc:  # noqa: BLE001 - counted
                result.fail(f"{scenario} PM", exc)
                complete = False
                continue
            pm_wall /= result.speed.across(slowdown)

            if published(de_target) != published(pm_target):
                result.fail(f"{scenario} DE",
                            "target publishes a different document "
                            "than the PM target")
                complete = False
                continue
            samples["de_wall"].append(de_wall)
            samples["pm_wall"].append(pm_wall)
            samples["de_bytes"].append(de_channel.total_bytes)
            samples["doc_bytes"].append(pm_channel.total_bytes)
        return samples if complete else None

    def run(self, seconds: float, trace: bool) -> RunResult:
        result = RunResult(unit=self.unit)
        state, result.setup_s = median_setup(self.setup, self.teardown,
                                                result.speed)
        tracing = Tracing() if trace else None
        result.tracing = tracing
        rounds: list[dict] = []
        unit_seconds: list[float] = []
        started = clock()
        while _keep_going(started, seconds, unit_seconds):
            unit_started = clock()
            untraced = self._round(state, result, None)
            if untraced is not None:
                rounds.append(untraced)
            if tracing is not None:
                traced = self._round(state, result, tracing)
                if traced is not None and untraced is not None:
                    result.traced_units += 1
                    result.untraced_wall += sum(untraced["de_wall"]) \
                        + sum(untraced["pm_wall"])
                    result.traced_wall += sum(traced["de_wall"]) \
                        + sum(traced["pm_wall"])
            unit_seconds.append(clock() - unit_started)
        self.teardown(state)
        if rounds:
            result.end_to_end = self._metrics(rounds)
        result.samples = {
            "rounds": len(rounds),
            "DE exchanges": sum(len(r["de_wall"]) for r in rounds),
            "PM exchanges": sum(len(r["pm_wall"]) for r in rounds),
        }
        return result

    @staticmethod
    def _metrics(rounds: list[dict]) -> dict[str, float]:
        de_walls = [wall for r in rounds for wall in r["de_wall"]]
        doc_bytes = sum(sum(r["doc_bytes"]) for r in rounds)
        # The four scenarios take different times, so the median of all
        # DE walls falls in the gap between the fast and the slow pair;
        # the median round's mean DE wall does not.
        de_p50 = median([statistics.fmean(r["de_wall"]) for r in rounds])
        return {
            "exchange_mb_per_s": doc_bytes / 1e6 / sum(de_walls),
            "pm_mb_per_s": doc_bytes / 1e6 / sum(
                sum(r["pm_wall"]) for r in rounds),
            "wire_bytes_per_doc_byte": (
                sum(sum(r["de_bytes"]) for r in rounds) / doc_bytes
            ),
            "session_p50_s": de_p50,
            "session_p90_s": p90(de_walls),
            "sessions_per_s": len(de_walls) / sum(de_walls),
            "resync_p50_s": de_p50,
            "resync_bytes_ratio": FULL_RESYNC_BYTES_RATIO,
        }


# -- service-warm -------------------------------------------------------------


@dataclass
class ServiceState:
    schema: object
    source_fragmentation: object
    target_fragmentation: object
    source: RelationalEndpoint
    probe: CostModel
    server: ExchangeServer
    transports: list
    plan_cache: PlanCache
    broker: ExchangeBroker | None = None
    #: Which client the calling broker worker is serving.
    bound: threading.local = field(default_factory=threading.local)


class ServiceWarm:
    """Closed loop on a self-served :class:`ExchangeServer`: each of
    :data:`CLIENTS` clients submits its next MF->LF session to one
    broker only after its previous one returned, and ships over its
    own :class:`TcpTransport` connection."""

    name = "service-warm"
    unit = "session"

    def __init__(self, seed: int, document_bytes: int = SESSION_BYTES,
                 min_sessions: int = MIN_SESSIONS) -> None:
        self.seed = seed
        self.document_bytes = document_bytes
        self.min_sessions = min_sessions

    def setup(self) -> ServiceState:
        schema = xmark_schema()
        mf = xmark_mf_fragmentation(schema)
        lf = xmark_lf_fragmentation(schema)
        document = generate_xmark_document(
            self.document_bytes, seed=self.seed, schema=schema
        )
        source = RelationalEndpoint("warm-src", mf)
        source.load_document(document)
        probe = CostModel(StatisticsCatalog.synthetic(schema))
        agency = DiscoveryAgency(schema)
        agency.register("src", mf, source)
        agency.register("tgt", lf)
        server = ExchangeServer(DiscoveryAgency(xmark_schema()),
                                probe=probe).start()
        transports = []
        try:
            host, http_port = server.http_address
            client = SoapHttpClient(host, http_port)
            for name in ("src", "tgt"):
                client.register(name, agency.registration(name).wsdl_text)
            for _ in range(CLIENTS):
                transports.append(
                    TcpTransport.connect(host, server.feed_address[1])
                )
        except BaseException:
            for transport in transports:
                transport.close()
            server.stop()
            raise
        state = ServiceState(schema, mf, lf, source, probe, server,
                             transports, PlanCache())
        state.broker = self._broker(state, agency, None)
        return state

    def teardown(self, state: ServiceState) -> None:
        if state.broker is not None:
            state.broker.close()
        for transport in state.transports:
            transport.close()
        state.server.stop()

    @staticmethod
    def _broker(state: ServiceState, agency: DiscoveryAgency,
                tracing: Tracing | None) -> ExchangeBroker:
        layers = _Layers(tracing)

        def channel():
            return layers.transport(state.transports[state.bound.client])

        return ExchangeBroker(agency, plan_cache=state.plan_cache,
                              max_workers=CLIENTS, probe=state.probe,
                              channel_factory=channel)

    def _phase(self, state: ServiceState, broker: ExchangeBroker,
               tracing: Tracing | None, seconds: float, min_sessions: int,
               reference: tuple[int, str], result: RunResult) -> dict:
        """Run the closed loop for ``seconds`` (and until
        ``min_sessions`` completed); returns the phase's samples, with
        latencies and wall in reference seconds.  The clients run
        concurrently, so the host's speed is sampled around the phase,
        not around each session."""
        layers = _Layers(tracing)
        lock = threading.Lock()
        samples = {"latency": [], "wait": [], "bytes": []}
        slowdown_before = result.speed.sample()
        started = clock()
        hard_stop = started + 3 * seconds + 30
        stop = started + seconds

        def enough() -> bool:
            now = clock()
            if now >= hard_stop:
                return True
            with lock:
                done = len(samples["latency"])
            return now >= stop and done >= min_sessions

        def client(index: int) -> None:
            while not enough():
                made: dict = {}
                submitted = clock()

                def make_target():
                    state.bound.client = index
                    if tracing is not None:
                        negotiated = tracing.recorder.last("negotiate")
                        made["wait"] = negotiated.start - submitted
                    target = RelationalEndpoint(f"warm-tgt-{index}",
                                                state.target_fragmentation)
                    made["target"] = target
                    return layers.endpoint(target)

                with lock:
                    result.attempted += 1
                try:
                    broker.submit("src", "tgt", make_target,
                                  wait=True).result()
                    latency = clock() - submitted
                    wire_bytes = state.transports[index].total_bytes
                    target = made["target"]
                    check = (target.total_rows(),
                             endpoint_digest(
                                 target, state.target_fragmentation))
                except Exception as exc:  # noqa: BLE001 - counted
                    with lock:
                        result.fail(f"session of client {index}", exc)
                    continue
                with lock:
                    if check != reference:
                        result.fail(f"session of client {index}",
                                    "target differs from the reference "
                                    "exchange")
                        continue
                    samples["latency"].append(latency)
                    samples["bytes"].append(wire_bytes)
                    if "wait" in made:
                        samples["wait"].append(made["wait"])

        with layers.active():
            threads = [
                threading.Thread(target=client, args=(index,),
                                 name=f"perfbench-client-{index}")
                for index in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=3 * seconds + 60)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("service clients did not finish")
        wall = clock() - started
        slowdown = result.speed.across(slowdown_before)
        samples["latency"] = [x / slowdown for x in samples["latency"]]
        samples["wall"] = wall / slowdown
        return samples

    def _reference(self, state: ServiceState
                   ) -> tuple[tuple[int, str], RelationalEndpoint]:
        """One untimed session: it fills the plan cache and is the
        target every timed session must reproduce."""
        made = {}

        def make_target():
            state.bound.client = 0
            made["target"] = RelationalEndpoint(
                "warm-reference", state.target_fragmentation
            )
            return made["target"]

        state.broker.submit("src", "tgt", make_target, wait=True).result()
        target = made["target"]
        return (target.total_rows(),
                endpoint_digest(target, state.target_fragmentation)), target

    def _pm_phase(self, state: ServiceState, expected: str,
                  seconds: float, result: RunResult, samples: dict) -> None:
        """PM of the session pair, repeated for ``seconds``; each
        target must publish the reference session's document."""
        stop = clock() + seconds
        runs = 0
        while runs < PM_MIN_RUNS or clock() < stop:
            runs += 1
            target = RelationalEndpoint("warm-pm", state.target_fragmentation)
            channel = in_process_wire()
            result.attempted += 1
            slowdown = result.speed.sample()
            try:
                started = clock()
                run_publish_and_map(state.source, target, channel, "MF->LF")
                wall = clock() - started
            except Exception as exc:  # noqa: BLE001 - counted
                result.fail("PM baseline", exc)
                continue
            wall /= result.speed.across(slowdown)
            if published(target) != expected:
                result.fail("PM baseline", "PM target publishes a "
                            "different document than the reference "
                            "session's target")
                continue
            samples["wall"].append(wall)
            samples["doc_bytes"].append(channel.total_bytes)

    def run(self, seconds: float, trace: bool) -> RunResult:
        result = RunResult(unit=self.unit)
        state, result.setup_s = median_setup(self.setup, self.teardown,
                                                result.speed)
        tracing = Tracing() if trace else None
        result.tracing = tracing
        traced_broker = None
        try:
            reference, reference_target = self._reference(state)
            expected = published(reference_target)
            pm = {"wall": [], "doc_bytes": []}
            session_seconds = seconds * (1 - PM_SHARE) / SERVICE_PHASES
            pm_seconds = seconds * PM_SHARE / SERVICE_PHASES
            phases = []
            if tracing is None:
                for index in range(SERVICE_PHASES):
                    done = sum(len(p["latency"]) for p in phases)
                    last = index == SERVICE_PHASES - 1
                    phases.append(self._phase(
                        state, state.broker, None, session_seconds,
                        self.min_sessions - done if last else 0,
                        reference, result))
                    self._pm_phase(state, expected, pm_seconds, result, pm)
            else:
                agency = DiscoveryAgency(state.schema)
                agency.register("src", state.source_fragmentation,
                                tracing.endpoint(state.source))
                agency.register("tgt", state.target_fragmentation)
                traced_broker = self._broker(state, agency, tracing)
                traced = []
                cache = state.plan_cache
                # Untraced and traced phases alternate, so machine drift
                # does not masquerade as tracing overhead.
                quarter = seconds * (1 - PM_SHARE) / 4
                for _ in range(2):
                    phases.append(self._phase(
                        state, state.broker, None, quarter, 0,
                        reference, result))
                    hits, misses = cache.hits, cache.misses
                    traced.append(self._phase(
                        state, traced_broker, tracing, quarter, 0,
                        reference, result))
                    result.plan_cache_hits += cache.hits - hits
                    result.plan_cache_misses += cache.misses - misses
                    self._pm_phase(state, expected, seconds * PM_SHARE / 2,
                                   result, pm)
                traced_latency = [x for p in traced for x in p["latency"]]
                untraced_latency = [x for p in phases for x in p["latency"]]
                result.traced_units = len(traced_latency)
                if traced_latency and untraced_latency:
                    result.traced_wall = statistics.fmean(traced_latency)
                    result.untraced_wall = statistics.fmean(untraced_latency)
                waits = [x for p in traced for x in p["wait"]]
                if waits:
                    result.per_layer["broker.wait_s"] = statistics.fmean(waits)
        finally:
            if traced_broker is not None:
                traced_broker.close()
            self.teardown(state)
        latencies = [x for p in phases for x in p["latency"]]
        if latencies and pm["wall"]:
            result.end_to_end = self._metrics(phases, latencies, pm)
        result.samples = {
            "sessions": len(latencies),
            "PM baselines": len(pm["wall"]),
        }
        return result

    @staticmethod
    def _metrics(phases: list[dict], latencies: list[float],
                 pm: dict) -> dict[str, float]:
        doc_bytes = median(pm["doc_bytes"])
        session_p50 = median(latencies)
        return {
            "exchange_mb_per_s": doc_bytes / 1e6 / session_p50,
            "pm_mb_per_s": median([
                size / 1e6 / wall
                for size, wall in zip(pm["doc_bytes"], pm["wall"])
            ]),
            "wire_bytes_per_doc_byte": median(
                [x for p in phases for x in p["bytes"]]) / doc_bytes,
            "session_p50_s": session_p50,
            "session_p90_s": p90(latencies),
            "sessions_per_s": len(latencies) / sum(p["wall"] for p in phases),
            "resync_p50_s": session_p50,
            "resync_bytes_ratio": FULL_RESYNC_BYTES_RATIO,
        }


# -- delta-resync -------------------------------------------------------------


@dataclass
class ResyncState:
    schema: object
    source_fragmentation: object
    target_fragmentation: object
    document: object
    program: object
    placement: object


class DeltaResync:
    """LF->MF delta re-sync.  Each epoch starts from a freshly loaded
    source, runs one journaled full exchange (the reference), then
    :data:`RESYNC_CYCLES` cycles of :func:`mutate_endpoint` followed by
    a ``delta=True`` exchange.  After :data:`PM_PER_EPOCH` of the
    cycles, PM of the source must publish the same document as the
    delta-merged target; the epoch's final target must digest equal to
    a fresh full re-exchange of the mutated source."""

    name = "delta-resync"
    unit = "cycle"
    scenario = "LF->MF"

    def __init__(self, seed: int, document_bytes: int = BULK_BYTES,
                 cycles: int = RESYNC_CYCLES) -> None:
        self.seed = seed
        self.document_bytes = document_bytes
        self.cycles = cycles

    def _load_source(self, state: ResyncState) -> RelationalEndpoint:
        source = RelationalEndpoint("resync-src", state.source_fragmentation)
        source.load_document(state.document)
        source.enable_versioning()
        return source

    def setup(self) -> ResyncState:
        schema = xmark_schema()
        lf = xmark_lf_fragmentation(schema)
        mf = xmark_mf_fragmentation(schema)
        document = generate_xmark_document(
            self.document_bytes, seed=self.seed, schema=schema
        )
        source = RelationalEndpoint("resync-src", lf)
        source.load_document(document)
        source.enable_versioning()
        agency = DiscoveryAgency(schema)
        agency.register("src", lf, source)
        agency.register("tgt", mf)
        plan = agency.negotiate(
            "src", "tgt", probe=CostModel(StatisticsCatalog.synthetic(schema))
        )
        return ResyncState(schema, lf, mf, document, plan.annotate(),
                           plan.placement)

    def teardown(self, state: ResyncState) -> None:
        pass

    def _pm_cycles(self) -> set[int]:
        """The cycles after which PM runs; the last is always one."""
        return {round((i + 1) * self.cycles / PM_PER_EPOCH) - 1
                for i in range(PM_PER_EPOCH)}

    def _pm(self, state: ResyncState, source: RelationalEndpoint,
            target: RelationalEndpoint, result: RunResult,
            samples: dict) -> bool:
        """One timed PM of the current source; its target must publish
        the same document as the delta-merged target."""
        pm_target = RelationalEndpoint("resync-pm",
                                       state.target_fragmentation)
        pm_channel = in_process_wire()
        result.attempted += 1
        slowdown = result.speed.sample()
        gc.collect()
        try:
            started = clock()
            run_publish_and_map(source, pm_target, pm_channel,
                                self.scenario)
            wall = clock() - started
        except Exception as exc:  # noqa: BLE001 - counted
            result.fail("PM baseline", exc)
            return False
        wall /= result.speed.across(slowdown)
        if published(target) != published(pm_target):
            result.fail("re-sync epoch", "delta-merged target publishes "
                        "a different document than PM")
            return False
        samples["pm_wall"].append(wall)
        samples["doc_bytes"].append(pm_channel.total_bytes)
        return True

    def _epoch(self, state: ResyncState, result: RunResult,
               tracing: Tracing | None) -> dict | None:
        layers = _Layers(tracing)
        samples = {"wall": [], "mutate_wall": [], "bytes_ratio": [],
                   "bytes": [], "pm_wall": [], "doc_bytes": []}
        pm_cycles = self._pm_cycles()
        source = self._load_source(state)
        target = RelationalEndpoint("resync-tgt", state.target_fragmentation)
        journal = ExchangeJournal()
        full_channel = in_process_wire()
        try:
            run_optimized_exchange(state.program, state.placement, source,
                                   target, full_channel, self.scenario,
                                   journal=journal)
        except Exception as exc:  # noqa: BLE001 - counted
            result.attempted += 1
            result.fail("full reference exchange", exc)
            return None
        full_bytes = full_channel.total_bytes
        for cycle in range(self.cycles):
            channel = in_process_wire()
            result.attempted += 1
            slowdown = result.speed.sample()
            gc.collect()
            try:
                with layers.active():
                    started = clock()
                    with layers.span("mutate"):
                        mutate_endpoint(
                            source, UPDATE_FRACTION,
                            seed=self.seed * 1000 + cycle,
                            delete_fraction=DELETE_FRACTION,
                        )
                    mutated = clock()
                    with layers.span("exchange"):
                        run_optimized_exchange(
                            state.program, state.placement,
                            layers.endpoint(source),
                            layers.endpoint(target),
                            layers.transport(channel), self.scenario,
                            journal=journal, delta=True,
                        )
                    finished = clock()
            except Exception as exc:  # noqa: BLE001 - counted
                result.fail(f"re-sync cycle {cycle}", exc)
                return None
            slowdown = result.speed.across(slowdown)
            samples["mutate_wall"].append((mutated - started) / slowdown)
            samples["wall"].append((finished - mutated) / slowdown)
            samples["bytes"].append(channel.total_bytes)
            samples["bytes_ratio"].append(channel.total_bytes / full_bytes)
            if cycle in pm_cycles \
                    and not self._pm(state, source, target, result, samples):
                return None

        # Oracle: a fresh full re-exchange of the mutated source.
        fragments = list(state.target_fragmentation)
        reference = RelationalEndpoint("resync-ref",
                                       state.target_fragmentation)
        try:
            run_optimized_exchange(state.program, state.placement, source,
                                   reference, in_process_wire(),
                                   self.scenario)
        except Exception as exc:  # noqa: BLE001 - counted
            result.fail("re-sync reference exchange", exc)
            return None
        if endpoint_digest(target, fragments) \
                != endpoint_digest(reference, fragments):
            result.fail("re-sync epoch", "delta-merged target differs "
                        "from a full re-exchange")
            return None
        return samples

    def run(self, seconds: float, trace: bool) -> RunResult:
        result = RunResult(unit=self.unit)
        state, result.setup_s = median_setup(self.setup, self.teardown,
                                                result.speed)
        tracing = Tracing() if trace else None
        result.tracing = tracing
        epochs: list[dict] = []
        unit_seconds: list[float] = []
        started = clock()
        while _keep_going(started, seconds, unit_seconds):
            unit_started = clock()
            untraced = self._epoch(state, result, None)
            if untraced is not None:
                epochs.append(untraced)
            if tracing is not None:
                traced = self._epoch(state, result, tracing)
                if traced is not None and untraced is not None:
                    result.traced_units += len(traced["wall"])
                    result.untraced_wall += sum(untraced["wall"]) \
                        + sum(untraced["mutate_wall"])
                    result.traced_wall += sum(traced["wall"]) \
                        + sum(traced["mutate_wall"])
            unit_seconds.append(clock() - unit_started)
        self.teardown(state)
        if epochs:
            result.end_to_end = self._metrics(epochs)
        result.samples = {
            "epochs": len(epochs),
            "delta exchanges": sum(len(e["wall"]) for e in epochs),
        }
        return result

    @staticmethod
    def _metrics(epochs: list[dict]) -> dict[str, float]:
        walls = [wall for e in epochs for wall in e["wall"]]
        doc_bytes = median([x for e in epochs for x in e["doc_bytes"]])
        resync_p50 = median(walls)
        return {
            "exchange_mb_per_s": doc_bytes / 1e6 / resync_p50,
            "pm_mb_per_s": (
                sum(sum(e["doc_bytes"]) for e in epochs) / 1e6
                / sum(sum(e["pm_wall"]) for e in epochs)
            ),
            "wire_bytes_per_doc_byte": median(
                [x for e in epochs for x in e["bytes"]]) / doc_bytes,
            "session_p50_s": resync_p50,
            "session_p90_s": p90(walls),
            "sessions_per_s": len(walls) / sum(walls),
            "resync_p50_s": resync_p50,
            "resync_bytes_ratio": median(
                [x for e in epochs for x in e["bytes_ratio"]]),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (XmarkBulk, ServiceWarm, DeltaResync)
}
