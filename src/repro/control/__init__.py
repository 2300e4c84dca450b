"""Multi-tenant control plane over the live runtime.

The paper's federation is long-running: queries arrive and leave while
the system executes (§3.2.2 "arrival or leave of queries"), and the
entities serve many independent clients at once.  This package adds the
operational layer that makes that sustainable:

* :mod:`repro.control.admission` — cost-model admission control.  An
  arrival whose predicted load would violate the §3.2.2 balance
  constraint waits in a bounded queue (or is rejected when the queue is
  full) instead of overloading an entity.
* :mod:`repro.control.quotas` — per-tenant weighted-fair token buckets
  enforced at the processor hosting the head, so one tenant's traffic
  spike cannot starve colocated tenants.
* :mod:`repro.control.loop` — :class:`ControlLoop`, the leg-neutral
  decisions: a scripted churn of registrations and teardowns admitted,
  deferred, rejected, cancelled and retried, each wakeup applied as one
  planner edit (:meth:`~repro.core.system.FederatedSystem.edit`).
* :mod:`repro.control.runtime` — :class:`Control`, the live-runtime
  service that runs the loop behind the :class:`~repro.live.Adaptation`
  service's gate (pause → drain → edit → rewire → resume), so arrivals
  and departures never corrupt colocated queries.
* :mod:`repro.control.simulate` — the same loop scheduled on the
  discrete-event simulator.
"""

from repro.control.admission import AdmissionPolicy, predicted_imbalance
from repro.control.events import ControlEvent
from repro.control.quotas import TenantThrottle, throttle_from_config
from repro.control.runtime import Control, ControlSettings
from repro.control.simulate import run_control_sim

__all__ = [
    "AdmissionPolicy",
    "Control",
    "ControlEvent",
    "ControlSettings",
    "TenantThrottle",
    "predicted_imbalance",
    "run_control_sim",
    "throttle_from_config",
]
