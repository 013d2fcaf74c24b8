"""Measured exchange benchmark: one command per workload.

    python3 perfbench/run.py --workload xmark-bulk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
as it stands, nothing is installed.  ``--trace 0`` prints the
end-to-end table, ``--trace 1`` the per-layer table beside it; the last
line of standard output is one JSON object with the metrics of the
mode.  See ``perfbench/README.md`` for the workloads, the metrics and
the layer -> end-to-end map.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: name -> (unit, better) of every end-to-end metric (untraced runs).
END_TO_END = {
    "exchange_mb_per_s": ("MB/s", "higher"),
    "pm_mb_per_s": ("MB/s", "higher"),
    "wire_bytes_per_doc_byte": ("ratio", "lower"),
    "session_p50_s": ("s", "lower"),
    "session_p90_s": ("s", "lower"),
    "sessions_per_s": ("1/s", "higher"),
    "resync_p50_s": ("s", "lower"),
    "resync_bytes_ratio": ("ratio", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better, span, what) of every per-layer metric, each
#: normalized per unit of the workload (round, session or cycle).
#: ``what`` is "self" (self-time), "spans" (span count) or a count key.
PER_LAYER = {
    "soap.encode_s": ("s", "lower", "soap.encode", "self"),
    "soap.decode_s": ("s", "lower", "soap.decode", "self"),
    "soap.bytes": ("bytes", "lower", "soap.encode", "bytes"),
    "ship.self_s": ("s", "lower", "ship", "self"),
    "ship.messages": ("count", "lower", "ship", "messages"),
    "program.self_s": ("s", "lower", "exchange", "self"),
    "combine.self_s": ("s", "lower", "combine", "self"),
    "combine.rows_out": ("count", "lower", "combine", "rows_out"),
    "split.self_s": ("s", "lower", "split", "self"),
    "split.rows_out": ("count", "lower", "split", "rows_out"),
    "scan.self_s": ("s", "lower", "scan", "self"),
    "scan.rows": ("count", "lower", "scan", "rows"),
    "write.self_s": ("s", "lower", "write", "self"),
    "write.rows": ("count", "lower", "write", "rows"),
    "index.s": ("s", "lower", "index", "self"),
    "index.count": ("count", "lower", "index", "count"),
    "publish.s": ("s", "lower", "publish", "self"),
    "shred.s": ("s", "lower", "shred", "self"),
    "load.s": ("s", "lower", "load", "self"),
    "load.rows": ("count", "lower", "load", "rows"),
    "agency.negotiate_s": ("s", "lower", "negotiate", "self"),
    "agency.negotiations": ("count", "lower", "negotiate", "spans"),
    "delta.compute_s": ("s", "lower", "delta.compute", "self"),
    "delta.merge_s": ("s", "lower", "delta.merge", "self"),
    "mutate.s": ("s", "lower", "mutate", "self"),
}

#: Per-layer metrics computed from more than one span name.
DERIVED_LAYER = {
    "exchange.wall_s": ("s", "lower"),
    "plancache.hit_ratio": ("ratio", "higher"),
    "broker.wait_s": ("s", "lower"),
    "delta.shipped_ratio": ("ratio", "lower"),
    "trace_overhead": ("ratio", "lower"),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("xmark-bulk", "service-warm",
                                 "delta-resync"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def per_layer_metrics(result) -> tuple[dict[str, float], list]:
    """Fold the traced units' spans into the per-layer metrics (per
    unit) and check that every exchange's self-times add up to its
    traced wall; returns the metrics and the failed accountings."""
    from spantree import check_accounting, fold

    recorder = result.tracing.recorder
    spans = recorder.snapshot()
    layers = fold(spans)
    units = max(result.traced_units, 1)
    metrics: dict[str, float] = {}
    for name, (_, _, span_name, what) in PER_LAYER.items():
        totals = layers.get(span_name)
        if totals is None:
            value = 0.0
        elif what == "self":
            value = totals.self_seconds
        elif what == "spans":
            value = totals.spans
        else:
            value = totals.counts.get(what, 0)
        metrics[name] = value / units
    exchanges = recorder.roots("exchange")
    metrics["exchange.wall_s"] = sum(
        span.duration for span in exchanges) / units
    delta = layers.get("delta.compute")
    metrics["delta.shipped_ratio"] = (
        delta.counts["shipped_rows"] / delta.counts["total_rows"]
        if delta is not None and delta.counts.get("total_rows") else 0.0
    )
    lookups = result.plan_cache_hits + result.plan_cache_misses
    metrics["plancache.hit_ratio"] = (
        result.plan_cache_hits / lookups if lookups else 0.0
    )
    metrics.setdefault("broker.wait_s", 0.0)
    metrics.update(result.per_layer)
    metrics["trace_overhead"] = (
        result.traced_wall / result.untraced_wall - 1.0
        if result.untraced_wall else 0.0
    )
    failed = [
        accounting for accounting in map(check_accounting, exchanges)
        if not accounting.ok
    ]
    return metrics, failed


def _table(title: str, rows: list[tuple[str, float, str]]) -> str:
    width = max(len(name) for name, _, _ in rows)
    lines = [title]
    lines += [f"  {name:<{width}}  {value:>14.6g}  {unit}"
              for name, value, unit in rows]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}; run from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    result = workload.run(args.seconds, bool(args.trace))

    end_to_end = dict(result.end_to_end)
    if not end_to_end:
        for failure in result.failures[:20]:
            print(f"perfbench: {failure}", file=sys.stderr)
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    end_to_end["setup_s"] = result.setup_s
    end_to_end["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    correct = result.failed == 0

    samples = ", ".join(f"{count} {what}"
                        for what, count in result.samples.items())
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(_table(f"end-to-end (untraced; {samples}; "
                 f"{result.attempted} ops, {result.failed} failed; "
                 f"times in reference seconds: measured ones were "
                 f"{result.speed.median_slowdown():.3f}x these, median of "
                 f"{len(result.speed.slowdowns)} speed samples)",
                 [(name, end_to_end[name], END_TO_END[name][0])
                  for name in END_TO_END]))
    metrics = {name: end_to_end[name] for name in END_TO_END}
    units = {name: spec[0] for name, spec in END_TO_END.items()}
    if args.trace:
        layer_metrics, unaccounted = per_layer_metrics(result)
        for accounting in unaccounted:
            result.failures.append(
                f"exchange of {accounting.root_seconds:.6f} s: layer "
                f"self-times sum to {accounting.self_seconds:.6f} s "
                f"({accounting.escaped} spans escaped their parent)"
            )
        correct = correct and not unaccounted
        layer_units = {name: spec[0] for name, spec in PER_LAYER.items()}
        layer_units.update(
            {name: spec[0] for name, spec in DERIVED_LAYER.items()})
        print(_table(f"per layer (traced; per {result.unit}, "
                     f"{result.traced_units} {result.unit}s)",
                     [(name, layer_metrics[name], layer_units[name])
                      for name in layer_units]))
        wall = layer_metrics["exchange.wall_s"]
        inside = wall - layer_metrics["program.self_s"]
        if wall:
            print(f"  layer spans cover {inside / wall:.1%} of the "
                  f"traced exchange wall; program.self_s is the rest")
        metrics = layer_metrics
        units = layer_units
    for failure in result.failures[:20]:
        print(f"perfbench: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
