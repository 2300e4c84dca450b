"""The control plane's discrete-event leg.

Drives the same churn script and the same :class:`~repro.control.
admission.AdmissionPolicy` through the simulator's online submission
path (:meth:`~repro.core.system.FederatedSystem.submit_one` /
:meth:`~repro.core.system.FederatedSystem.withdraw`).  The simulator
has no live fragments to protect, so registrations redeploy entities
directly — but the admission decisions, queueing, and latency
accounting are byte-for-byte the live plane's, which is what the
cross-leg tests compare.
"""

from __future__ import annotations

from repro.control.admission import (
    ADMIT,
    DEFER,
    AdmissionPolicy,
    entity_loads,
)
from repro.control.events import REGISTER, ControlEvent
from repro.core.report import RunReport
from repro.core.system import FederatedSystem, SystemConfig
from repro.monitoring.control import ControlReport
from repro.query.spec import QuerySpec
from repro.streams.catalog import StreamCatalog


def run_control_sim(
    catalog: StreamCatalog,
    config: SystemConfig,
    queries: list[QuerySpec],
    events: list[ControlEvent] | tuple[ControlEvent, ...],
    duration: float,
    *,
    retry_period: float = 0.25,
) -> tuple[RunReport, ControlReport]:
    """Simulate a base workload plus a churn script under admission
    control; returns the run report and the control report."""
    system = FederatedSystem(catalog, config)
    if queries:
        system.submit(queries)
    policy = AdmissionPolicy(
        queue_limit=config.admission_queue_limit,
        imbalance_threshold=config.admission_imbalance_threshold,
    )
    control = ControlReport()

    def admit(spec: QuerySpec, arrived_at: float) -> None:
        system.submit_one(spec)
        control.record_admitted(system.sim.now - arrived_at)

    def retry() -> None:
        if policy.queue:
            loads = entity_loads(system)
            for pending in policy.drain_admissible(loads, catalog):
                admit(pending.spec, pending.arrived_at)
        if policy.queue:
            system.sim.schedule(retry_period, retry)

    def handle(event: ControlEvent) -> None:
        if event.action == REGISTER:
            control.record_arrival()
            verdict = policy.decide(
                event.spec.estimated_load(catalog), entity_loads(system)
            )
            if verdict == ADMIT:
                admit(event.spec, event.at)
            elif verdict == DEFER:
                was_empty = not policy.queue
                policy.park(event.spec, event.at)
                control.record_deferred(len(policy.queue))
                if was_empty:
                    system.sim.schedule(retry_period, retry)
            else:
                control.record_rejected()
        else:
            control.record_departure()
            for pending in list(policy.queue):
                if pending.spec.query_id == event.query_id:
                    policy.queue.remove(pending)
                    control.record_torn_down()
                    return
            try:
                system.withdraw(event.query_id)
            except KeyError:
                return  # rejected earlier or never existed
            control.record_torn_down()
            retry()  # the departure freed capacity

    for event in sorted(events, key=lambda e: (e.at, e.subject)):
        system.sim.schedule_at(event.at, lambda e=event: handle(e))
    report = system.run(duration)
    control.stranded_in_queue = len(policy.queue)
    return report, control
