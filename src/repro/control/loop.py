"""The control plane's decisions, on either leg.

:class:`ControlLoop` walks a scripted churn of registrations and
teardowns (§3.2.2 "arrival or leave of queries") against a planner: it
admits, defers, rejects, cancels and retries, and turns each wakeup's
changes into one planner edit
(:meth:`~repro.core.system.FederatedSystem.edit`).  It never waits: a
leg asks it when to wake next, and runs what it decided — the simulator
at once (:func:`~repro.control.simulate.run_control_sim`), the live
runtime behind a closed gate (:class:`~repro.control.runtime.
ControlPlane`).  Several events due at one wakeup share one edit, so a
churn storm costs one quiesce window, not one per query.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.control.admission import ADMIT, DEFER, AdmissionPolicy, entity_loads
from repro.control.events import REGISTER, ControlEvent
from repro.monitoring.control import ControlReport
from repro.query.spec import QuerySpec

# What one wakeup changes: arrivals with their arrival times, teardowns.
Window = tuple[list[tuple[QuerySpec, float]], list[str]]


class ControlLoop:
    """Admission, registration and teardown decisions over a planner.

    Args:
        planner: The :class:`~repro.core.system.FederatedSystem` whose
            plan the changes edit.
        admission: The admission policy and its wait queue.
        events: The churn script (run in ``(at, subject)`` order).
        metrics: The control report the loop records into.
        retry_period: Virtual seconds between retries of the admission
            queue while arrivals are parked (a departure also retries it
            at once, inside its own edit).
    """

    def __init__(
        self,
        planner,
        admission: AdmissionPolicy,
        events: Iterable[ControlEvent],
        metrics: ControlReport,
        *,
        retry_period: float,
    ) -> None:
        self.planner = planner
        self.admission = admission
        self.events = sorted(events, key=lambda e: (e.at, e.subject))
        self.metrics = metrics
        self.retry_period = retry_period
        self._next = 0

    def next_wakeup(self, now: float) -> float | None:
        """The next scripted event's time, or one retry period from now
        if that is sooner and arrivals are parked; ``None`` once script
        and queue are exhausted.  One wakeup is pending at a time."""
        targets = []
        if self._next < len(self.events):
            targets.append(self.events[self._next].at)
        if self.admission.queue:
            targets.append(now + self.retry_period)
        return min(targets, default=None)

    def decide(self, now: float) -> Window | None:
        """Decide the events due at ``now`` (or, with none due, probe the
        queue); the changes to apply, or ``None`` when there are none."""
        catalog = self.planner.catalog
        to_register: list[tuple[QuerySpec, float]] = []
        to_teardown: list[str] = []
        due = 0
        while self._next < len(self.events) and self.events[self._next].at <= now:
            event = self.events[self._next]
            self._next += 1
            due += 1
            if event.action == REGISTER:
                self.metrics.record_arrival()
                verdict = self.admission.decide(
                    event.spec.estimated_load(catalog), entity_loads(self.planner)
                )
                if verdict == ADMIT:
                    to_register.append((event.spec, event.at))
                elif verdict == DEFER:
                    self.admission.park(event.spec, event.at)
                    self.metrics.record_deferred(len(self.admission.queue))
                else:
                    self.metrics.record_rejected()
            else:
                self.metrics.record_departure()
                if self._cancel_queued(event.query_id):
                    self.metrics.record_torn_down()
                else:
                    to_teardown.append(event.query_id)
        if not due and self.admission.queue:
            # Periodic retry: admission decisions are pure planner reads,
            # so probe the queue before paying for an edit.
            for pending in self.admission.drain_admissible(
                entity_loads(self.planner), catalog
            ):
                to_register.append((pending.spec, pending.arrived_at))
        if not (to_register or to_teardown):
            return None
        return to_register, to_teardown

    def _cancel_queued(self, query_id: str) -> bool:
        """Tear down an arrival that never left the admission queue."""
        for pending in self.admission.queue:
            if pending.spec.query_id == query_id:
                self.admission.queue.remove(pending)
                return True
        return False

    def apply(self, window: Window, now: float) -> list[str]:
        """Apply one wakeup's changes as one planner edit; returns the
        touched entity ids.

        Departures of queries the planner does not know (torn down or
        rejected earlier) are moot.  Departures free capacity, so the
        queue is retried against the loads they leave, and what it
        admits joins this edit.
        """
        to_register, to_teardown = window
        planner = self.planner
        assigned = planner.allocation_result.assignment if planner.allocation_result else {}
        leaving = [query_id for query_id in sorted(to_teardown) if query_id in assigned]
        if to_teardown:
            loads = entity_loads(planner, without=leaving)
            for pending in self.admission.drain_admissible(loads, planner.catalog):
                to_register.append((pending.spec, pending.arrived_at))
        touched = planner.edit(
            departures=leaving, arrivals=[spec for spec, __ in to_register]
        )
        for __ in leaving:
            self.metrics.record_torn_down()
        for __, arrived in to_register:
            self.metrics.record_admitted(now - arrived)
        return touched
