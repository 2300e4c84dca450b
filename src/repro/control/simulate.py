"""The control plane's discrete-event leg.

Schedules the leg-neutral :class:`~repro.control.loop.ControlLoop` on
the simulator: one wakeup pending at a time, each applying its edit at
once (the simulator's in-flight tuples reach a fragment wherever the
edit put it, so there is nothing to drain).  The admission decisions,
queueing, retry cadence and latency accounting are therefore the live
plane's, which is what the cross-leg tests compare.
"""

from __future__ import annotations

from repro.control.admission import AdmissionPolicy
from repro.control.events import ControlEvent
from repro.control.loop import ControlLoop
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
    control = ControlReport()
    loop = ControlLoop(
        system,
        AdmissionPolicy(
            queue_limit=config.admission_queue_limit,
            imbalance_threshold=config.admission_imbalance_threshold,
        ),
        events,
        control,
        retry_period=retry_period,
    )

    def schedule() -> None:
        wakeup = loop.next_wakeup(system.sim.now)
        if wakeup is not None:
            system.sim.schedule_at(wakeup, wake)

    def wake() -> None:
        window = loop.decide(system.sim.now)
        if window is not None:
            loop.apply(window, system.sim.now)
        schedule()

    schedule()
    report = system.run(duration)
    control.stranded_in_queue = len(loop.admission.queue)
    return report, control
