"""The live multi-tenant control plane.

:class:`Control` is the service that adds a long-lived control task to a
:class:`~repro.live.runtime.LiveRuntime` running the adaptation loop.
The task, :class:`ControlPlane`, runs the leg-neutral
:class:`~repro.control.loop.ControlLoop` on the run's clock: at each
wakeup the loop decides admissions and teardowns, and the plane applies
them as one planner edit under the migration protocol's pause → drain →
edit → rewire → resume quiescence — so a registration or a departure
can never corrupt a colocated query's in-flight state, and a departing
shared-group member only shrinks its group's fan-out.

Per-tenant fair quotas (weighted-fair token buckets from
:mod:`repro.control.quotas`) are installed on every LAN processor's
stream intake (gateway hand-off or delegate relay); which head fragment
is charged to which tenant follows the wiring, reloaded on every change
(:meth:`~repro.live.runtime.LiveDataflow.rewire`).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace
from functools import partial

from repro.control.admission import AdmissionPolicy
from repro.control.events import ControlEvent
from repro.control.loop import ControlLoop
from repro.control.quotas import throttle_from_config
from repro.live.adaptation import Adaptation, QueryMigrator
from repro.live.metrics import LiveReport
from repro.live.runtime import LiveDataflow, LiveRuntime, RuntimeService
from repro.monitoring.control import ControlReport


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
    """The control task: the :class:`ControlLoop` on the live clock,
    each wakeup's edit applied behind the migrator's gate."""

    def __init__(
        self,
        loop: ControlLoop,
        flow: LiveDataflow,
        migrator: QueryMigrator,
        metrics: ControlReport,
    ) -> None:
        self.loop = loop
        self.flow = flow
        self.migrator = migrator
        self.metrics = metrics

    async def run(self) -> None:
        """Process churn events until script and queue are exhausted."""
        clock = self.flow.clock
        while (wakeup := self.loop.next_wakeup(clock.now)) is not None:
            await clock.wait_until(wakeup)
            now = clock.now
            window = self.loop.decide(now)
            if window is not None:
                await self.migrator.apply(partial(self.loop.apply, window, now))
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
        self.events = list(events)
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
        loop = ControlLoop(
            self.runtime.planner,
            self.admission,
            self.events,
            self.report,
            retry_period=self.settings.retry_period,
        )
        self.plane = ControlPlane(
            loop, flow, self.adaptation.migrator, self.report
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
