"""The live multi-tenant control plane.

:class:`Control` is the service that adds a long-lived control task to a
:class:`~repro.live.runtime.LiveRuntime` running the adaptation loop;
the task walks a scripted churn of query registrations and teardowns
(§3.2.2 "arrival or leave of queries") against the *running*
federation:

* **arrivals** route through the coordinator tree
  (:meth:`~repro.core.system.FederatedSystem.adopt_query`), pass the
  cost-model admission check, and are wired into the dataflow under the
  migration protocol's pause → drain → install → resume quiescence —
  so a registration can never corrupt a colocated query's in-flight
  state;
* **departures** detach under the same quiescence
  (:meth:`~repro.live.adaptation.QueryMigrator.retire_query`),
  shrinking shared-computation groups around the leaver without
  disturbing the remaining members;
* **per-tenant fair quotas** (weighted-fair token buckets from
  :mod:`repro.control.quotas`) are installed on every LAN processor's
  stream intake (gateway hand-off or delegate relay); which head
  fragment is charged to which tenant follows the wiring, re-derived
  on every change
  (:meth:`~repro.live.runtime.LiveDataflow.rewire`).

Several events due at the same wakeup share one quiesce window, so a
churn storm costs one drain, not one per query.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace

from repro.control.admission import (
    ADMIT,
    DEFER,
    AdmissionPolicy,
    entity_loads,
)
from repro.control.events import REGISTER, ControlEvent
from repro.control.quotas import throttle_from_config
from repro.live.adaptation import Adaptation, QueryMigrator
from repro.live.metrics import LiveReport
from repro.live.runtime import LiveDataflow, LiveRuntime, RuntimeService
from repro.monitoring.control import ControlReport
from repro.query.spec import QuerySpec


@dataclass(frozen=True)
class ControlSettings:
    """Knobs of the control plane's event loop.

    Attributes:
        retry_period: Virtual seconds between retries of the admission
            queue while arrivals are parked (departures also trigger an
            immediate retry inside their own quiesce window).
    """

    retry_period: float = 0.25

    def __post_init__(self) -> None:
        if self.retry_period <= 0:
            raise ValueError("retry_period must be positive")


class ControlPlane:
    """The control task: admission, registration, teardown, quotas."""

    def __init__(
        self,
        runtime: LiveRuntime,
        flow: LiveDataflow,
        migrator: QueryMigrator,
        admission: AdmissionPolicy,
        events: list[ControlEvent],
        settings: ControlSettings,
        metrics: ControlReport,
    ) -> None:
        self.runtime = runtime
        self.flow = flow
        self.migrator = migrator
        self.admission = admission
        self.events = events
        self.settings = settings
        self.metrics = metrics

    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Process churn events until script and queue are exhausted."""
        clock = self.flow.clock
        index = 0
        while index < len(self.events) or self.admission.queue:
            targets = []
            if index < len(self.events):
                targets.append(self.events[index].at)
            if self.admission.queue:
                targets.append(clock.now + self.settings.retry_period)
            await clock.wait_until(min(targets))
            now = clock.now
            due: list[ControlEvent] = []
            while index < len(self.events) and self.events[index].at <= now:
                due.append(self.events[index])
                index += 1
            await self._tick(due, now)

    # ------------------------------------------------------------------
    async def _tick(self, due: list[ControlEvent], now: float) -> None:
        """Decide admissions, then apply all changes in one window."""
        planner = self.runtime.planner
        catalog = planner.catalog
        to_register: list[tuple[QuerySpec, float]] = []
        to_teardown: list[str] = []
        for event in due:
            if event.action == REGISTER:
                self.metrics.record_arrival()
                verdict = self.admission.decide(
                    event.spec.estimated_load(catalog),
                    entity_loads(planner),
                )
                if verdict == ADMIT:
                    to_register.append((event.spec, event.at))
                elif verdict == DEFER:
                    self.admission.park(event.spec, event.at)
                    self.metrics.record_deferred(
                        len(self.admission.queue)
                    )
                else:
                    self.metrics.record_rejected()
            else:
                self.metrics.record_departure()
                if self._cancel_queued(event.query_id):
                    self.metrics.record_torn_down()
                else:
                    to_teardown.append(event.query_id)
        if not due and self.admission.queue:
            # Periodic retry wakeup: admission decisions are pure
            # planner reads, so probe the queue before paying for a
            # quiesce window.
            loads = entity_loads(planner)
            for pending in self.admission.drain_admissible(
                loads, catalog
            ):
                to_register.append((pending.spec, pending.arrived_at))
        if not (to_register or to_teardown):
            return
        await self._window(to_register, to_teardown, now)

    def _cancel_queued(self, query_id: str) -> bool:
        """Tear down an arrival that never left the admission queue."""
        for pending in self.admission.queue:
            if pending.spec.query_id == query_id:
                self.admission.queue.remove(pending)
                return True
        return False

    # ------------------------------------------------------------------
    async def _window(
        self,
        to_register: list[tuple[QuerySpec, float]],
        to_teardown: list[str],
        now: float,
    ) -> None:
        """One pause → drain → apply → resume batch."""
        planner = self.runtime.planner
        gate = self.migrator.gate
        touched: set[str] = set()
        gate.close()
        try:
            await self.migrator.quiesce()
            for query_id in sorted(to_teardown):
                entity_id = planner.allocation_result.assignment.get(
                    query_id
                )
                if entity_id is None:
                    continue  # unknown or already gone: teardown is moot
                hosted = planner.entities[entity_id].hosted.get(query_id)
                if hosted is not None:
                    self.migrator.retire_query(entity_id, hosted)
                planner.drop_query(query_id)
                touched.add(entity_id)
                self.metrics.record_torn_down()
            if to_teardown:
                # departures just freed capacity: retry parked arrivals
                # inside the same window
                loads = entity_loads(planner)
                for pending in self.admission.drain_admissible(
                    loads, planner.catalog
                ):
                    to_register.append(
                        (pending.spec, pending.arrived_at)
                    )
            for spec, arrived in to_register:
                entity_id = planner.adopt_query(spec)
                hosted = planner.entities[entity_id].hosted[spec.query_id]
                self.migrator.register_query(entity_id, hosted)
                touched.add(entity_id)
                self.metrics.record_admitted(now - arrived)
            if self.runtime.config.shared_execution:
                for entity_id in sorted(touched):
                    self.migrator.reshare(entity_id)
            if touched:
                self.migrator.refresh_trees()
        finally:
            gate.open()
        self.metrics.record_window()


class Control(RuntimeService):
    """The multi-tenant control plane, beside a running live runtime.

    Admission and quota knobs come from :class:`~repro.core.system.
    SystemConfig` (so all three execution legs read one configuration);
    the churn script is per-run data.  Requires an
    :class:`~repro.live.adaptation.Adaptation` service listed before it:
    lifecycle changes are applied behind that service's feed gate,
    through its migrator.
    """

    def __init__(
        self,
        settings: ControlSettings | None = None,
        *,
        events: list[ControlEvent] | tuple[ControlEvent, ...] = (),
    ) -> None:
        self.settings = settings or ControlSettings()
        self.events = sorted(events, key=lambda e: (e.at, e.subject))
        self.report = ControlReport()
        self.plane: ControlPlane | None = None

    # ------------------------------------------------------------------
    def attach(self, runtime: LiveRuntime) -> None:
        adaptation = runtime.service(Adaptation)
        services = runtime.services
        if adaptation is None or services.index(adaptation) > services.index(self):
            raise ValueError(
                "the Control service needs an Adaptation service listed "
                "before it (it applies lifecycle changes through that "
                "service's feed gate and migrator)"
            )
        self.runtime = runtime
        self.adaptation = adaptation
        config = runtime.config
        runtime.throttle = throttle_from_config(config)
        self.admission = AdmissionPolicy(
            queue_limit=config.admission_queue_limit,
            imbalance_threshold=config.admission_imbalance_threshold,
        )

    def start(self, flow: LiveDataflow) -> list[asyncio.Task]:
        # Owners for per-tenant delivery accounting: every scripted
        # arrival plus everything submitted before the run (a query torn
        # down mid-run leaves the planner but keeps its results).
        self._tenant_of = {
            spec.query_id: spec.tenant
            for spec in (
                *(e.spec for e in self.events if e.spec is not None),
                *self.runtime.planner.queries,
            )
        }
        self.plane = ControlPlane(
            self.runtime,
            flow,
            self.adaptation.migrator,
            self.admission,
            self.events,
            self.settings,
            self.report,
        )
        return [asyncio.create_task(self.plane.run(), name="live:control")]

    def finish(self, report: LiveReport, flow: LiveDataflow) -> LiveReport:
        runtime = self.runtime
        delivered: dict[str, int] = {}
        for query_id, tuples in runtime.metrics.results_by_query.items():
            tenant = self._tenant_of.get(query_id)
            if tenant is not None:
                delivered[tenant] = delivered.get(tenant, 0) + len(tuples)
        control = self.report
        if runtime.throttle is not None:
            control.shed_by_tenant = dict(runtime.throttle.shed_by_tenant)
        control.delivered_by_tenant = delivered
        control.stranded_in_queue = len(self.admission.queue)
        return replace(report, control=control)
