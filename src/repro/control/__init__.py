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
* :mod:`repro.control.runtime` — :class:`Control`, the live-runtime
  service that executes a scripted churn of registrations and
  teardowns through the coordinator tree, reusing the
  :class:`~repro.live.Adaptation` service's migration protocol (pause →
  drain → install/detach → resume) so arrivals and departures never
  corrupt colocated queries.
* :mod:`repro.control.simulate` — the same admission policy driving
  the discrete-event simulator's online submission path.
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
