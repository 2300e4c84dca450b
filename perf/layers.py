"""The per-layer metrics of the traced pass.

A metric's prefix is the module under ``src/repro/`` it measures.  The
table in ``perf/README.md`` says which end-to-end metric each one
should move, on which workload.  Every name is emitted for every
workload; a layer a workload does not exercise reads 0.
"""

from __future__ import annotations

import glob
import json
import os
import shutil

import tracing
from measure import percentile

FRAGMENT_KINDS = (
    "select",
    "join",
    "aggregate",
    "partition",
    "merge",
    "shared",
    "tap",
)

# (name, unit, better)
LAYER_METRICS: list[tuple[str, str, str]] = (
    [
        ("core.submit_s", "s", "lower"),
        ("simulation.trace_record_s", "s", "lower"),
        ("simulation.trace_us_per_tuple", "us", "lower"),
        ("dissemination.filter_batch.calls", "count", "lower"),
        ("dissemination.filter_batch.tuples_in", "count", "lower"),
        ("dissemination.filter_batch.tuples_out", "count", "lower"),
        ("dissemination.filter_batch.busy_s", "s", "lower"),
        ("dissemination.filter_pass_ratio", "ratio", "lower"),
        ("dissemination.needs_tuple.calls", "count", "lower"),
        ("dissemination.needs_tuple.busy_s", "s", "lower"),
        ("dissemination.filtered_edges", "count", "higher"),
        ("dissemination.forwarded_edges", "count", "lower"),
        ("interest.kernel_ns_per_tuple", "ns", "lower"),
        ("live.feed.self_s", "s", "lower"),
        ("live.forward_batch.self_s", "s", "lower"),
        ("live.forward.self_s", "s", "lower"),
        ("live.batcher.batches", "count", "lower"),
        ("live.batcher.mean_batch_size", "count", "higher"),
        ("live.send.calls", "count", "lower"),
        ("live.send.wait_s", "s", "lower"),
        ("live.send.retries", "count", "lower"),
        ("live.send.dropped_tuples", "count", "lower"),
        ("live.channel.put_wait_s", "s", "lower"),
        ("live.channel.get_wait_s", "s", "lower"),
        ("live.channel.blocked_puts", "count", "lower"),
        ("live.channel.inbox_high_water", "count", "lower"),
        ("live.gateway.self_s", "s", "lower"),
        ("live.processor.self_s", "s", "lower"),
        ("live.collector.self_s", "s", "lower"),
        ("live.metrics.record_s", "s", "lower"),
        ("live.loop_overhead_s", "s", "lower"),
        ("live.feed_lag_ms", "ms", "lower"),
        ("live.latency_due_p95_ms", "ms", "lower"),
        ("live.latency_p99_ms", "ms", "lower"),
        ("live.linger_flushes", "count", "lower"),
        ("live.open_loop_cpu_us_per_tuple", "us", "lower"),
        ("placement.delegate_of.calls", "count", "lower"),
        ("placement.delegate_of.busy_s", "s", "lower"),
        ("engine.run_batch.calls", "count", "lower"),
        ("engine.run_batch.tuples_in", "count", "lower"),
        ("engine.run_batch.tuples_out", "count", "lower"),
        ("engine.run_batch.busy_s", "s", "lower"),
        ("engine.run.calls", "count", "lower"),
        ("engine.run.busy_s", "s", "lower"),
    ]
    + [(f"engine.{kind}.busy_s", "s", "lower") for kind in FRAGMENT_KINDS]
    + [(f"engine.{kind}.tuples_in", "count", "lower") for kind in FRAGMENT_KINDS]
    + [
        ("engine.tuples_per_run_batch", "count", "higher"),
        ("engine.cost_for_batch.busy_s", "s", "lower"),
        ("engine.partition.route.busy_s", "s", "lower"),
        ("engine.partition.skew", "ratio", "lower"),
        ("engine.shared.members_per_prefix", "count", "higher"),
        ("distributed.encode_batch.calls", "count", "lower"),
        ("distributed.encode_batch.tuples", "count", "lower"),
        ("distributed.encode_batch.bytes", "count", "lower"),
        ("distributed.encode_batch.busy_s", "s", "lower"),
        ("distributed.decode_batch.calls", "count", "lower"),
        ("distributed.decode_batch.busy_s", "s", "lower"),
        ("distributed.bytes_per_tuple", "count", "lower"),
        ("distributed.cross_worker_tuples", "count", "lower"),
        ("distributed.credit_wait_s", "s", "lower"),
        ("distributed.credit_frames", "count", "lower"),
        ("distributed.admission_wait_s", "s", "lower"),
        ("distributed.probe_rounds", "count", "lower"),
        ("distributed.handshake_s", "s", "lower"),
        ("distributed.shutdown_s", "s", "lower"),
        ("distributed.worker_cpu_s", "s", "lower"),
        ("distributed.worker_tuple_skew", "ratio", "lower"),
        ("perf.trace_overhead_pct", "%", "lower"),
    ]
)

# Spans whose self time is work done by the named function itself (the
# rest of the awaited spans — channel get/put, pace, credit waits, the
# transport's timeout/backoff — are waiting).
BUSY_SPANS = (
    "live.feed",
    "live.forward_batch",
    "live.forward",
    "live.flush",
    "live.flush.source",
    "live.gateway",
    "live.processor",
    "live.collector",
    "distributed.remote_put",
)
COORDINATOR_METRICS = (
    "distributed.probe_rounds",
    "distributed.cross_worker_tuples",
    "distributed.worker_tuple_skew",
    "distributed.handshake_s",
    "distributed.shutdown_s",
)
NO_CALLS = (0, 0.0, 0.0)  # [calls, seconds, child seconds] of an unused name
BUSY_TOTALS = (
    "dissemination.filter_batch",
    "dissemination.needs_tuple",
    "placement.delegate_of",
    "engine.run_batch",
    "engine.run",
    "engine.cost_for_batch",
    "engine.partition.route",
    "live.metrics.record",
    "distributed.encode_batch",
    "distributed.decode_batch",
)


class Tracer:
    """Switches the recorders on around the legs of a traced run."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.span_dir = os.path.join(out_dir, "spans")
        self.recorder = tracing.install()
        self.recorder.enabled = False
        self.legs: dict[str, dict] = {}
        self._leg = ""

    def start(self, leg: str) -> None:
        self._leg = leg
        shutil.rmtree(self.span_dir, ignore_errors=True)
        os.makedirs(self.span_dir, exist_ok=True)
        os.environ["PERF_TRACE_DIR"] = self.span_dir
        self.recorder.reset()
        self.recorder.enabled = True

    def stop(self, sample) -> None:
        rec = self.recorder
        rec.enabled = False
        os.environ.pop("PERF_TRACE_DIR", None)
        snapshot = rec.snapshot()
        workers = []
        for path in sorted(glob.glob(os.path.join(self.span_dir, "*.json"))):
            with open(path, encoding="utf-8") as handle:
                workers.append(json.load(handle))
        shutil.rmtree(self.span_dir, ignore_errors=True)
        self.legs[self._leg] = {
            "own": snapshot,
            "workers": workers,
            "wall_s": sample.wall_s,
            "cpu_s": sample.cpu_s,
            "report": sample.report,
        }
        rec.reset()

    def export(self, workload: str) -> str:
        """Write every traced leg's spans as one Chrome trace file."""
        path = os.path.join(self.out_dir, f"trace-{workload}.json")
        snapshots = []
        for leg in self.legs.values():
            snapshots.append(leg["own"])
            snapshots.extend(leg["workers"])
        tracing.export_chrome_trace(path, snapshots)
        return path


def _merged(leg: dict) -> tuple[dict, dict]:
    """Totals and counters of a leg summed over its processes."""
    totals: dict[str, list] = {}
    counters: dict[str, float] = {}
    for snap in [leg["own"], *leg["workers"]]:
        for name, (calls, seconds, child) in snap["totals"].items():
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += seconds
            entry[2] += child
        for name, amount in snap["counters"].items():
            counters[name] = counters.get(name, 0) + amount
    return totals, counters


def compute(
    tracer: Tracer,
    *,
    untraced_wall_s: float,
    stamps,
    coordinator: dict | None,
    worker_cpu_s: float,
) -> dict[str, float]:
    """Every ``LAYER_METRICS`` value of one traced run."""
    main = tracer.legs["main"]
    totals, counters = _merged(main)
    report = main["report"]
    snaps = [main["own"], *main["workers"]]

    def calls(name: str) -> float:
        return totals.get(name, NO_CALLS)[0]

    def seconds(name: str) -> float:
        return totals.get(name, NO_CALLS)[1]

    def self_s(name: str) -> float:
        entry = totals.get(name, NO_CALLS)
        return entry[1] - entry[2]

    def across(name: str) -> float:
        """Planning and trace recording run once per process, in
        parallel: report the slowest process, not the sum."""
        return max(snap["totals"].get(name, NO_CALLS)[1] for snap in snaps)

    ingested = report.tuples_ingested
    filter_in = counters.get("dissemination.filter_batch.in", 0)
    filter_out = counters.get("dissemination.filter_batch.out", 0)
    batch_in = counters.get("engine.run_batch.in", 0)
    encoded = counters.get("distributed.encode_batch.in", 0)
    encoded_bytes = counters.get("distributed.encode_batch.out", 0)
    busy = sum(seconds(name) for name in BUSY_TOTALS) + sum(
        self_s(name) for name in BUSY_SPANS
    )
    members = [n for snap in snaps for n in snap["shared_members"]]
    kernels = [k for k in (s["kernel_ns_per_tuple"] for s in snaps) if k]

    values = {
        "core.submit_s": across("core.submit"),
        "simulation.trace_record_s": across("simulation.trace_record"),
        "simulation.trace_us_per_tuple": (
            1e6 * across("simulation.trace_record") / ingested
        ),
        "dissemination.filter_batch.calls": calls("dissemination.filter_batch"),
        "dissemination.filter_batch.tuples_in": filter_in,
        "dissemination.filter_batch.tuples_out": filter_out,
        "dissemination.filter_batch.busy_s": seconds("dissemination.filter_batch"),
        "dissemination.filter_pass_ratio": (
            filter_out / filter_in if filter_in else 0.0
        ),
        "dissemination.needs_tuple.calls": calls("dissemination.needs_tuple"),
        "dissemination.needs_tuple.busy_s": seconds("dissemination.needs_tuple"),
        "dissemination.filtered_edges": report.filtered_edges,
        "dissemination.forwarded_edges": report.forwarded_edges,
        "interest.kernel_ns_per_tuple": (
            sum(kernels) / len(kernels) if kernels else 0.0
        ),
        "live.feed.self_s": self_s("live.feed"),
        "live.forward_batch.self_s": self_s("live.forward_batch"),
        "live.forward.self_s": self_s("live.forward"),
        "live.batcher.batches": report.batches_sent,
        "live.batcher.mean_batch_size": report.mean_batch_size,
        "live.send.calls": calls("live.send"),
        "live.send.wait_s": seconds("live.send"),
        "live.send.retries": report.retries,
        "live.send.dropped_tuples": report.dropped_tuples,
        "live.channel.put_wait_s": seconds("live.channel.put"),
        "live.channel.get_wait_s": seconds("live.channel.get"),
        "live.channel.blocked_puts": report.blocked_puts,
        "live.channel.inbox_high_water": max(
            report.entity_queue_high_water.values(), default=0
        ),
        "live.gateway.self_s": self_s("live.gateway"),
        "live.processor.self_s": self_s("live.processor"),
        "live.collector.self_s": self_s("live.collector"),
        "live.metrics.record_s": seconds("live.metrics.record"),
        "live.loop_overhead_s": max(0.0, main["cpu_s"] - busy),
        "placement.delegate_of.calls": calls("placement.delegate_of"),
        "placement.delegate_of.busy_s": seconds("placement.delegate_of"),
        "engine.run_batch.calls": calls("engine.run_batch"),
        "engine.run_batch.tuples_in": batch_in,
        "engine.run_batch.tuples_out": counters.get("engine.run_batch.out", 0),
        "engine.run_batch.busy_s": seconds("engine.run_batch"),
        "engine.run.calls": calls("engine.run"),
        "engine.run.busy_s": seconds("engine.run"),
        "engine.tuples_per_run_batch": (
            batch_in / calls("engine.run_batch")
            if calls("engine.run_batch")
            else 0.0
        ),
        "engine.cost_for_batch.busy_s": seconds("engine.cost_for_batch"),
        "engine.partition.route.busy_s": seconds("engine.partition.route"),
        "engine.partition.skew": max(s["partition_skew"] for s in snaps),
        "engine.shared.members_per_prefix": (
            sum(members) / len(members) if members else 0.0
        ),
        "distributed.encode_batch.calls": calls("distributed.encode_batch"),
        "distributed.encode_batch.tuples": encoded,
        "distributed.encode_batch.bytes": encoded_bytes,
        "distributed.encode_batch.busy_s": seconds("distributed.encode_batch"),
        "distributed.decode_batch.calls": calls("distributed.decode_batch"),
        "distributed.decode_batch.busy_s": seconds("distributed.decode_batch"),
        "distributed.bytes_per_tuple": (
            encoded_bytes / encoded if encoded else 0.0
        ),
        "distributed.credit_wait_s": seconds("distributed.credit_wait"),
        "distributed.credit_frames": calls("distributed.credit_release"),
        "distributed.admission_wait_s": seconds("distributed.admission_put"),
        "distributed.worker_cpu_s": worker_cpu_s,
        "perf.trace_overhead_pct": 100.0 * (main["wall_s"] / untraced_wall_s - 1.0),
    }
    for kind in FRAGMENT_KINDS:
        values[f"engine.{kind}.busy_s"] = seconds(
            f"engine.run_batch.{kind}"
        ) + seconds(f"engine.run.{kind}")
        values[f"engine.{kind}.tuples_in"] = counters.get(
            f"engine.run_batch.{kind}.in", 0
        ) + counters.get(f"engine.run.{kind}.in", 0)

    # Distributed facts read off the coordinator's public attributes.
    if coordinator is None:
        for name in COORDINATOR_METRICS:
            values[name] = 0
    else:
        marks = main["own"]["marks"]
        workers = coordinator["worker_metrics"].values()
        delivered = [m["report"]["tuples_delivered"] for m in workers]
        values["distributed.probe_rounds"] = coordinator["probe_rounds"]
        values["distributed.cross_worker_tuples"] = sum(
            m["sent"] for m in workers
        )
        values["distributed.worker_tuple_skew"] = (
            max(delivered) * len(delivered) / sum(delivered)
        )
        values["distributed.handshake_s"] = (
            marks["start_sent"] - coordinator["entered"]
        )
        values["distributed.shutdown_s"] = (
            coordinator["left"] - marks["shutdown_sent"]
        )

    # Open-loop facts come from the paced leg (the probe, or paced's main).
    paced = tracer.legs.get("probe", main)
    paced_totals, __ = _merged(paced)
    values["live.linger_flushes"] = paced_totals.get(
        "live.flush.source", NO_CALLS
    )[0]
    # Recorders on, and it moves with the host's idle state (README).
    values["live.open_loop_cpu_us_per_tuple"] = (
        1e6 * paced["cpu_s"] / paced["report"].tuples_ingested
    )
    values["live.feed_lag_ms"] = percentile(stamps.feed_lag_ms(), 0.95)
    values["live.latency_due_p95_ms"] = percentile(
        stamps.due_latencies_ms(), 0.95
    )
    values["live.latency_p99_ms"] = percentile(stamps.latencies_ms(), 0.99)
    return values
