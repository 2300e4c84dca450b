"""Accounting for the multi-tenant control plane.

:class:`ControlReport` is the one record the control plane ``record_*``s
into — one entry per lifecycle decision — on both legs: the live
:class:`~repro.control.runtime.Control` service adds the quota and
delivery tables and attaches it to the run's
:class:`~repro.live.metrics.LiveReport`; :func:`~repro.control.simulate.
run_control_sim` returns it beside the simulator's run report.

Admission latency is measured in *virtual* seconds from the arrival
event to the moment the query's fragments were installed behind the
reopened gate — the client-visible wait, independent of replay speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ControlReport:
    """Control-plane metrics of one run (live or simulated).

    Attributes:
        arrivals / departures: Lifecycle events the plane processed.
        registered: Arrivals admitted and wired into the dataflow.
        torn_down: Departures detached from the dataflow.
        deferred: Arrivals that waited in the admission queue at least
            once (the balance constraint refused immediate placement).
        rejected: Arrivals refused outright (queue full).
        stranded_in_queue: Arrivals still queued when the run ended.
        queue_peak: Deepest the admission queue ever got.
        quiesce_windows: Pause→drain→apply→resume batches executed
            (several due events share one window).
        admission_latencies: Virtual seconds from arrival to installed,
            one sample per admitted query, in admission order.
        shed_by_tenant: Tuples the fair-quota throttle shed per tenant
            (empty when quotas are off).
        delivered_by_tenant: Result tuples delivered per tenant — the
            fairness numerators the E21 bench gates on.

    ``stranded_in_queue`` and the two per-tenant tables are set once,
    when the run has ended; everything else grows during it.
    """

    arrivals: int = 0
    departures: int = 0
    registered: int = 0
    torn_down: int = 0
    deferred: int = 0
    rejected: int = 0
    stranded_in_queue: int = 0
    queue_peak: int = 0
    quiesce_windows: int = 0
    admission_latencies: list[float] = field(default_factory=list)
    shed_by_tenant: dict = field(default_factory=dict)
    delivered_by_tenant: dict = field(default_factory=dict)

    @property
    def mean_admission_latency(self) -> float:
        """Mean virtual seconds from arrival to installed."""
        waits = self.admission_latencies
        return sum(waits) / len(waits) if waits else 0.0

    @property
    def p95_admission_latency(self) -> float:
        """95th-percentile virtual seconds from arrival to installed."""
        waits = sorted(self.admission_latencies)
        if not waits:
            return 0.0
        return waits[min(len(waits) - 1, int(0.95 * len(waits)))]

    # ------------------------------------------------------------------
    def record_arrival(self) -> None:
        """One registration event reached the control plane."""
        self.arrivals += 1

    def record_departure(self) -> None:
        """One teardown event reached the control plane."""
        self.departures += 1

    def record_admitted(self, waited: float) -> None:
        """One arrival admitted after ``waited`` virtual seconds."""
        self.registered += 1
        self.admission_latencies.append(waited)

    def record_torn_down(self) -> None:
        """One departure detached (or cancelled from the queue)."""
        self.torn_down += 1

    def record_deferred(self, queue_depth: int) -> None:
        """One arrival parked in the admission queue."""
        self.deferred += 1
        if queue_depth > self.queue_peak:
            self.queue_peak = queue_depth

    def record_rejected(self) -> None:
        """One arrival refused outright (admission queue full)."""
        self.rejected += 1

    def record_window(self) -> None:
        """One pause→drain→apply→resume batch of lifecycle changes."""
        self.quiesce_windows += 1

    # ------------------------------------------------------------------
    def fairness_ratio(self) -> float:
        """Max/min delivered throughput across tenants (1.0 = fair;
        0.0 when fewer than two tenants delivered anything)."""
        counts = [c for c in self.delivered_by_tenant.values() if c > 0]
        if len(counts) < 2:
            return 0.0
        return max(counts) / min(counts)

    def summary_lines(self) -> list[str]:
        """Human-readable digest (appended to the live run summary)."""
        lines = [
            f"control: {self.arrivals} arrivals "
            f"({self.registered} admitted, {self.deferred} deferred, "
            f"{self.rejected} rejected, {self.stranded_in_queue} stranded), "
            f"{self.torn_down}/{self.departures} teardowns",
            f"admission latency: mean "
            f"{self.mean_admission_latency * 1000:.1f} ms, p95 "
            f"{self.p95_admission_latency * 1000:.1f} ms (virtual); "
            f"queue peak {self.queue_peak}, "
            f"{self.quiesce_windows} quiesce windows",
        ]
        if self.shed_by_tenant:
            shed = ", ".join(
                f"{tenant}={count}"
                for tenant, count in sorted(self.shed_by_tenant.items())
            )
            lines.append(f"quota shed: {shed}")
        if self.delivered_by_tenant:
            delivered = ", ".join(
                f"{tenant}={count}"
                for tenant, count in sorted(self.delivered_by_tenant.items())
            )
            ratio = self.fairness_ratio()
            lines.append(
                f"delivered by tenant: {delivered} "
                f"(fairness ratio {ratio:.2f})"
            )
        return lines
