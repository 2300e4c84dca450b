"""Live-run accounting: counters during the run, a report after it.

:class:`LiveMetrics` is the mutable collector every live task writes
into; :meth:`LiveMetrics.build_report` freezes it into a
:class:`LiveReport` once the federation has drained.  The report also
re-expresses per-entity state through the *existing* monitoring report
types (:class:`~repro.monitoring.reports.LoadReport` and
:class:`~repro.monitoring.reports.SubtreeLoad`), so anything built
against the hierarchical monitoring service — dashboards, routing
signals, tests — can consume live measurements unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.monitoring.adaptation import AdaptationReport
from repro.monitoring.control import ControlReport
from repro.monitoring.recovery import RecoveryReport
from repro.monitoring.reports import LoadReport, SubtreeLoad
from repro.streams.tuples import StreamTuple


@dataclass(slots=True)
class TransportStats:
    """Inter-task send accounting (filled in by the transport)."""

    batches_sent: int = 0
    tuples_sent: int = 0
    retries: int = 0
    dropped_batches: int = 0
    dropped_tuples: int = 0


class LiveMetrics:
    """Counters shared by every task of one live run."""

    def __init__(self) -> None:
        self.tuples_ingested = 0
        self.entity_tuples: dict[str, int] = {}
        self.entity_latency_sum: dict[str, float] = {}
        self.entity_busy_cost: dict[str, float] = {}
        self.query_busy_cost: dict[str, float] = {}
        self.filtered_edges = 0
        self.forwarded_edges = 0
        self.results_by_query: dict[str, list[StreamTuple]] = {}
        self.result_latency_sum = 0.0
        self.result_count = 0
        self.result_latencies: list[float] = []
        self.negative_latency_samples = 0
        self.wall_started = 0.0
        self.wall_finished = 0.0

    # ------------------------------------------------------------------
    def start_clock(self) -> None:
        """Mark the wall-clock start of live execution."""
        self.wall_started = time.perf_counter()

    def stop_clock(self) -> None:
        """Mark the wall-clock end of live execution."""
        self.wall_finished = time.perf_counter()

    def record_ingest(self, count: int = 1) -> None:
        """Account tuples replayed into the federation at the sources."""
        self.tuples_ingested += count

    def record_delivery(
        self, entity_id: str, tup: StreamTuple, virtual_now: float
    ) -> None:
        """Account one tuple arriving at an entity gateway."""
        self.entity_tuples[entity_id] = self.entity_tuples.get(entity_id, 0) + 1
        latency = virtual_now - tup.created_at
        if latency < 0.0:
            # A negative delay means a virtual timestamp was compared
            # against the wrong clock; count the clamp so parity tests
            # can fail loudly, and keep the bogus sample out of the
            # latency aggregates entirely — a clamped zero is a clock
            # artefact, not a measurement.
            self.negative_latency_samples += 1
            return
        self.entity_latency_sum[entity_id] = (
            self.entity_latency_sum.get(entity_id, 0.0) + latency
        )

    def record_busy(
        self, entity_id: str, cost: float, query_id: str | None = None
    ) -> None:
        """Account fragment CPU cost (virtual seconds) at an entity,
        optionally attributed to the owning query (the adaptation loop's
        observed vertex weight)."""
        self.entity_busy_cost[entity_id] = (
            self.entity_busy_cost.get(entity_id, 0.0) + cost
        )
        if query_id is not None:
            self.query_busy_cost[query_id] = (
                self.query_busy_cost.get(query_id, 0.0) + cost
            )

    def record_result(
        self, query_id: str, tup: StreamTuple, virtual_now: float
    ) -> None:
        """Account one result tuple reaching the collector."""
        self.results_by_query.setdefault(query_id, []).append(tup)
        self.result_count += 1
        latency = virtual_now - tup.created_at
        if latency < 0.0:
            # The result still counts; its latency sample does not —
            # including clamped zeros would deflate the reported mean
            # and p95 tail.
            self.negative_latency_samples += 1
            return
        self.result_latency_sum += latency
        self.result_latencies.append(latency)

    # ------------------------------------------------------------------
    def build_report(
        self,
        *,
        duration: float,
        transport: TransportStats,
        entity_queue_depth: dict[str, int],
        entity_queue_high_water: dict[str, int],
        blocked_puts: int,
        entity_query_count: dict[str, int],
    ) -> "LiveReport":
        """Freeze the collected counters into a :class:`LiveReport`."""
        wall = max(1e-9, self.wall_finished - self.wall_started)
        delivered = sum(self.entity_tuples.values())
        if self.result_latencies:
            ordered = sorted(self.result_latencies)
            p95 = ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]
        else:
            p95 = 0.0
        return LiveReport(
            duration=duration,
            wall_seconds=wall,
            tuples_ingested=self.tuples_ingested,
            tuples_delivered=delivered,
            results=self.result_count,
            mean_result_latency=(
                self.result_latency_sum / len(self.result_latencies)
                if self.result_latencies
                else 0.0
            ),
            p95_result_latency=p95,
            negative_latency_samples=self.negative_latency_samples,
            filtered_edges=self.filtered_edges,
            forwarded_edges=self.forwarded_edges,
            batches_sent=transport.batches_sent,
            tuples_sent=transport.tuples_sent,
            retries=transport.retries,
            dropped_batches=transport.dropped_batches,
            dropped_tuples=transport.dropped_tuples,
            blocked_puts=blocked_puts,
            entity_tuples=dict(self.entity_tuples),
            entity_queue_depth=dict(entity_queue_depth),
            entity_queue_high_water=dict(entity_queue_high_water),
            entity_cpu_seconds=dict(self.entity_busy_cost),
            query_cpu_seconds=dict(self.query_busy_cost),
            entity_query_count=dict(entity_query_count),
            results_by_query={
                q: len(tups) for q, tups in self.results_by_query.items()
            },
        )


@dataclass(frozen=True)
class LiveReport:
    """Aggregated metrics of one :meth:`LiveRuntime.run`.

    Attributes:
        duration: Virtual seconds of source trace replayed.
        wall_seconds: Wall-clock seconds the live run took.
        tuples_ingested: Tuples replayed at the sources.
        tuples_delivered: Gateway arrivals summed over entities
            (a tuple relayed through ``n`` entities counts ``n`` times).
        results: Result tuples collected across all queries.
        mean_result_latency: Mean virtual source-to-result delay.
        p95_result_latency: 95th-percentile source-to-result delay.
        negative_latency_samples: Latency samples that had to be clamped
            to zero — a nonzero value means a virtual timestamp was
            compared against the wrong clock somewhere.
        filtered_edges / forwarded_edges: Early-filtering decisions at
            dissemination-tree edges.
        batches_sent / tuples_sent: Channel sends that succeeded and
            the items they carried; ``mean_batch_size`` is their ratio
            (transport batching efficiency) and ``tuples_sent /
            tuples_delivered`` the hand-off amplification — channel
            hops per gateway delivery.
        retries: Send attempts that timed out and were retried.
        dropped_batches / dropped_tuples: Sends abandoned after the
            retry budget (drops are metrics, never exceptions).
        blocked_puts: Sends that found a channel full (backpressure).
        entity_*: Per-entity views keyed by entity id.
        query_cpu_seconds: Fragment CPU demand attributed per query —
            the observed vertex weights the adaptation loop feeds back
            into the query graph.
        recovery: Failure/recovery metrics, attached by a listed
            :class:`~repro.live.chaos.Chaos` service; ``None`` otherwise.
        adaptation: Adaptation-loop and lifecycle-edit metrics, attached
            by a listed :class:`~repro.live.adaptation.Adaptation`
            service; ``None`` otherwise.
        control: Multi-tenant control-plane metrics (admission, quotas,
            churn), attached by a listed :class:`~repro.control.Control`
            service; ``None`` otherwise.
    """

    duration: float
    wall_seconds: float
    tuples_ingested: int
    tuples_delivered: int
    results: int
    mean_result_latency: float
    p95_result_latency: float
    negative_latency_samples: int
    filtered_edges: int
    forwarded_edges: int
    batches_sent: int
    tuples_sent: int
    retries: int
    dropped_batches: int
    dropped_tuples: int
    blocked_puts: int
    entity_tuples: dict[str, int] = field(default_factory=dict)
    entity_queue_depth: dict[str, int] = field(default_factory=dict)
    entity_queue_high_water: dict[str, int] = field(default_factory=dict)
    entity_cpu_seconds: dict[str, float] = field(default_factory=dict)
    query_cpu_seconds: dict[str, float] = field(default_factory=dict)
    entity_query_count: dict[str, int] = field(default_factory=dict)
    results_by_query: dict[str, int] = field(default_factory=dict)
    recovery: RecoveryReport | None = None
    adaptation: AdaptationReport | None = None
    control: ControlReport | None = None

    # ------------------------------------------------------------------
    @property
    def mean_batch_size(self) -> float:
        """Average tuples per successfully sent batch."""
        if not self.batches_sent:
            return 0.0
        return self.tuples_sent / self.batches_sent

    @property
    def ingest_throughput(self) -> float:
        """Source tuples replayed per wall-clock second."""
        return self.tuples_ingested / self.wall_seconds

    @property
    def delivered_throughput(self) -> float:
        """Gateway deliveries per wall-clock second."""
        return self.tuples_delivered / self.wall_seconds

    @property
    def speedup(self) -> float:
        """Virtual seconds replayed per wall-clock second."""
        return self.duration / self.wall_seconds

    # ------------------------------------------------------------------
    def load_reports(self) -> list[LoadReport]:
        """Per-entity state as monitoring :class:`LoadReport` records.

        ``cpu_load`` is the entity's fragment CPU demand normalised by
        the replayed virtual duration (CPU seconds per second), clamped
        to [0, 1]; ``backlog_seconds`` converts the inbox high-water
        mark to queued work via the entity's mean per-tuple cost.
        """
        reports = []
        for entity_id in sorted(
            set(self.entity_query_count) | set(self.entity_tuples)
        ):
            tuples = self.entity_tuples.get(entity_id, 0)
            busy = self.entity_cpu_seconds.get(entity_id, 0.0)
            mean_cost = busy / tuples if tuples else 0.0
            backlog = (
                self.entity_queue_high_water.get(entity_id, 0) * mean_cost
            )
            reports.append(
                LoadReport(
                    entity_id=entity_id,
                    cpu_load=min(1.0, busy / max(1e-9, self.duration)),
                    backlog_seconds=backlog,
                    query_count=self.entity_query_count.get(entity_id, 0),
                    timestamp=self.duration,
                )
            )
        return reports

    def federation_view(self) -> SubtreeLoad:
        """The whole federation as one monitoring aggregate."""
        reports = self.load_reports()
        return SubtreeLoad(
            member_id="live",
            entity_count=len(reports),
            total_cpu_load=sum(r.cpu_load for r in reports),
            max_backlog=max((r.backlog_seconds for r in reports), default=0.0),
            total_queries=sum(r.query_count for r in reports),
            timestamp=self.duration,
        )

    # ------------------------------------------------------------------
    def summary_lines(self) -> list[str]:
        """Human-readable digest (used by the CLI and examples)."""
        return [
            f"replayed {self.duration:.1f}s of traffic in "
            f"{self.wall_seconds:.2f}s wall ({self.speedup:.1f}x real time)",
            f"throughput: {self.ingest_throughput:,.0f} source tuples/s, "
            f"{self.delivered_throughput:,.0f} gateway deliveries/s",
            f"results: {self.results} from "
            f"{sum(1 for n in self.results_by_query.values() if n)} queries "
            f"(mean latency {self.mean_result_latency * 1000:.1f} ms, "
            f"p95 {self.p95_result_latency * 1000:.1f} ms)",
            f"batching: {self.batches_sent} batches, "
            f"mean size {self.mean_batch_size:.1f}",
            f"early filtering: {self.filtered_edges} edges filtered, "
            f"{self.forwarded_edges} forwarded",
            f"flow control: {self.blocked_puts} blocked sends, "
            f"{self.retries} retries, {self.dropped_tuples} tuples dropped",
        ] + (
            self.recovery.summary_lines() if self.recovery else []
        ) + (
            self.adaptation.summary_lines() if self.adaptation else []
        ) + (
            self.control.summary_lines() if self.control else []
        )

    def queue_lines(self) -> list[str]:
        """Per-entity queue-depth digest (CLI acceptance view)."""
        lines = []
        for entity_id in sorted(self.entity_queue_high_water):
            lines.append(
                f"{entity_id}: {self.entity_tuples.get(entity_id, 0)} tuples, "
                f"queue high-water {self.entity_queue_high_water[entity_id]}, "
                f"final depth {self.entity_queue_depth.get(entity_id, 0)}, "
                f"cpu {self.entity_cpu_seconds.get(entity_id, 0.0):.3f}s"
            )
        return lines
