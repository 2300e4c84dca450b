"""The live multi-tenant control plane.

:class:`ControlRuntime` extends the adaptive runtime with a long-lived
control task that walks a scripted churn of query registrations and
teardowns (§3.2.2 "arrival or leave of queries") against the *running*
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
  delegate-routing intake; which head fragment is charged to which
  tenant follows the wiring, re-derived on every change
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
from repro.live.adaptation import (
    AdaptationSettings,
    AdaptiveRuntime,
    QueryMigrator,
)
from repro.live.chaos import ChaosRuntime, ChaosSettings
from repro.live.metrics import LiveReport
from repro.live.runtime import LiveDataflow, LiveSettings
from repro.monitoring.control import ControlMetrics
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
        runtime: "ControlRuntime",
        flow: LiveDataflow,
        migrator: QueryMigrator,
        events: list[ControlEvent],
        settings: ControlSettings,
        metrics: ControlMetrics,
    ) -> None:
        self.runtime = runtime
        self.flow = flow
        self.migrator = migrator
        self.events = events
        self.settings = settings
        self.metrics = metrics
        self.admission = runtime.admission

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
                self.runtime.note_tenant(event.spec)
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
        gate = self.runtime.gate
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


class ControlRuntime(AdaptiveRuntime):
    """An :class:`AdaptiveRuntime` with the multi-tenant control plane.

    Admission and quota knobs come from :class:`~repro.core.system.
    SystemConfig` (so all three execution legs read one configuration);
    the churn script is per-run data.
    """

    def __init__(
        self,
        catalog,
        config,
        settings: LiveSettings | None = None,
        adaptation: AdaptationSettings | None = None,
        control: ControlSettings | None = None,
        *,
        events: list[ControlEvent] | tuple[ControlEvent, ...] = (),
    ) -> None:
        super().__init__(catalog, config, settings, adaptation)
        self.control_settings = control or ControlSettings()
        self.events = sorted(events, key=lambda e: (e.at, e.subject))
        self.control_metrics = ControlMetrics()
        self.throttle = throttle_from_config(config)
        self.admission = AdmissionPolicy(
            queue_limit=config.admission_queue_limit,
            imbalance_threshold=config.admission_imbalance_threshold,
        )
        self.plane: ControlPlane | None = None
        self._tenant_of: dict[str, str] = {}
        for event in self.events:
            if event.spec is not None:
                self.note_tenant(event.spec)

    # ------------------------------------------------------------------
    def note_tenant(self, spec: QuerySpec) -> None:
        """Remember a query's owner for per-tenant delivery accounting."""
        self._tenant_of[spec.query_id] = spec.tenant

    def submit(self, queries: list[QuerySpec]) -> None:
        super().submit(queries)
        for query in queries:
            self.note_tenant(query)

    # ------------------------------------------------------------------
    async def _start_extras(self, flow: LiveDataflow) -> list[asyncio.Task]:
        extras = await super()._start_extras(flow)
        self.plane = ControlPlane(
            self,
            flow,
            self.controller.migrator,
            self.events,
            self.control_settings,
            self.control_metrics,
        )
        extras.append(
            asyncio.create_task(self.plane.run(), name="live:control")
        )
        return extras

    def _finish_report(
        self, report: LiveReport, flow: LiveDataflow
    ) -> LiveReport:
        report = super()._finish_report(report, flow)
        delivered: dict[str, int] = {}
        for query_id, tuples in self.metrics.results_by_query.items():
            tenant = self._tenant_of.get(query_id)
            if tenant is not None:
                delivered[tenant] = delivered.get(tenant, 0) + len(tuples)
        control = self.control_metrics.build_report(
            shed_by_tenant=(
                dict(self.throttle.shed_by_tenant)
                if self.throttle is not None
                else {}
            ),
            delivered_by_tenant=delivered,
            stranded_in_queue=len(self.admission.queue),
        )
        return replace(report, control=control)


class ControlChaosRuntime(ControlRuntime, ChaosRuntime):
    """The control plane under the chaos harness's virtual clock.

    Cooperative MRO: control plane → adaptation loop → chaos/recovery →
    base dataflow.  The chaos fault script arrives via ``script`` (the
    churn script stays in ``events``); both run on the same virtual
    timeline, which is what lets the churn chaos test interleave
    registrations, teardowns, and crashes deterministically.
    """

    def __init__(
        self,
        catalog,
        config,
        settings: LiveSettings | None = None,
        adaptation: AdaptationSettings | None = None,
        control: ControlSettings | None = None,
        *,
        events: list[ControlEvent] | tuple[ControlEvent, ...] = (),
        script=None,
        chaos: ChaosSettings | None = None,
    ) -> None:
        super().__init__(
            catalog, config, settings, adaptation, control, events=events
        )
        # ChaosRuntime.__init__ ran mid-chain with defaults; install the
        # caller's fault script and settings over them.
        self.script = sorted(script or [])
        if chaos is not None:
            self.chaos_settings = chaos
