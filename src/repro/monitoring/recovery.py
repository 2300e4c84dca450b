"""Failure-recovery accounting for the live runtime's chaos harness.

The adaptability story of the paper (§3.2.1 coordinator repair, §3.2.2
re-allocation, §4 delegation) is only credible if recovery is
*measured*: how fast failures are detected, how many streams fail over,
how much data the failover replays versus loses.  :class:`RecoveryReport`
is the one record the heartbeat monitor, chaos controller, and recovery
manager all ``record_*`` into during the run; the
:class:`~repro.live.chaos.Chaos` service closes it with the end-of-run
audit and attaches it to the live run's
:class:`~repro.live.metrics.LiveReport`.

All counters are monotone (they only grow during a run), and all times
are virtual seconds on the run's clock, so two runs with the same seed
and the same chaos script produce identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _timeline():
    """A per-node bookkeeping table: not reported, not compared."""
    return field(default_factory=dict, compare=False, repr=False)


@dataclass
class RecoveryReport:
    """Failure/recovery metrics of one chaos run.

    Attributes:
        failures_injected: Crash faults applied by the chaos script
            (partitions, latency spikes, and stalls are not failures —
            they are expected to heal without repair).
        detections: Crashes the heartbeat monitor declared dead.
        failovers: Streams re-delegated to a surviving processor.
        streams_unrecovered: Streams whose delegation could not fail
            over (no surviving processor in the entity).
        reparented_children: Dissemination-tree children moved to a new
            parent after their parent entity crashed.
        coordinator_repairs: Coordinator-tree repairs performed.
        heartbeats_sent: Heartbeat messages exchanged.
        tuples_replayed: Tuples re-fed from replay buffers on failover.
        tuples_lost: Tuples destroyed with crashed tasks' queues.
        mean_detection_delay: Mean virtual seconds from fault injection
            to heartbeat detection.
        mean_time_to_recover: Mean virtual seconds from fault injection
            to completed repair (detection delay + repair work).
        failures: ``(node_id, kind, virtual_time)`` per injected crash.
        audit_violations: Rendered structural-invariant violations found
            by the end-of-run :func:`repro.analysis.invariants.
            audit_federation` pass (crashed entities excluded); must be
            empty after recovery has run.

    The nine counters only grow during a run; the last four attributes
    are set once, by :meth:`close`, when the run has drained.
    """

    failures_injected: int = 0
    detections: int = 0
    failovers: int = 0
    streams_unrecovered: int = 0
    reparented_children: int = 0
    coordinator_repairs: int = 0
    heartbeats_sent: int = 0
    tuples_replayed: int = 0
    tuples_lost: int = 0
    mean_detection_delay: float = 0.0
    mean_time_to_recover: float = 0.0
    failures: tuple[tuple[str, str, float], ...] = ()
    audit_violations: tuple[str, ...] = ()
    _failed: dict[str, tuple[str, float]] = _timeline()  # node → (kind, at)
    _detected_at: dict[str, float] = _timeline()
    _recovered_at: dict[str, float] = _timeline()

    # ------------------------------------------------------------------
    def record_failure(self, node_id: str, kind: str, at: float) -> None:
        """A fault was injected at ``node_id`` (virtual time ``at``)."""
        self.failures_injected += 1
        self._failed.setdefault(node_id, (kind, at))

    def record_detection(self, node_id: str, at: float) -> None:
        """The heartbeat monitor declared ``node_id`` dead."""
        if node_id not in self._detected_at:
            self.detections += 1
            self._detected_at[node_id] = at

    def record_recovery(self, node_id: str, at: float) -> None:
        """Repair actions for ``node_id`` finished."""
        self._recovered_at.setdefault(node_id, at)

    def record_lost(self, count: int) -> None:
        """Tuples destroyed by a crash (queued at the dead task)."""
        self.tuples_lost += count

    def record_replayed(self, count: int) -> None:
        """Tuples re-fed to a failover delegate from a replay buffer."""
        self.tuples_replayed += count

    def close(self, audit_violations: tuple[str, ...]) -> None:
        """Fix the end-of-run values: delays, failure list, audit."""

        def mean_delay(then: dict[str, float]) -> float:
            delays = [
                then[n] - self._failed[n][1]
                for n in sorted(then)
                if n in self._failed
            ]
            return sum(delays) / len(delays) if delays else 0.0

        self.mean_detection_delay = mean_delay(self._detected_at)
        self.mean_time_to_recover = mean_delay(self._recovered_at)
        self.failures = tuple(
            (n, kind, at) for n, (kind, at) in sorted(self._failed.items())
        )
        self.audit_violations = audit_violations

    # ------------------------------------------------------------------
    def summary_lines(self) -> list[str]:
        """Human-readable digest (appended to the live run summary)."""
        return [
            f"chaos: {self.failures_injected} crashes injected, "
            f"{self.detections} detected "
            f"(mean detection {self.mean_detection_delay * 1000:.0f} ms)",
            f"recovery: {self.failovers} stream failovers, "
            f"{self.reparented_children} children re-parented, "
            f"{self.coordinator_repairs} coordinator repairs "
            f"(mean time-to-recover "
            f"{self.mean_time_to_recover * 1000:.0f} ms)",
            f"data: {self.tuples_replayed} tuples replayed, "
            f"{self.tuples_lost} lost with crashed queues, "
            f"{self.streams_unrecovered} streams unrecoverable",
            f"invariant audit: {len(self.audit_violations)} violation(s) "
            "among surviving entities",
        ]
