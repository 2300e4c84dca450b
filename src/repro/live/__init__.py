"""Live asyncio execution of a planned federation.

The bridge from reproduction to runnable system: planning (allocation,
delegation, placement, dissemination trees, early filtering) stays in
``core``/``allocation``/``placement`` exactly as the simulator uses it;
this package moves only *execution* onto concurrent asyncio tasks wired
by bounded channels with batching, backpressure, and retrying sends.

Entry point: :class:`LiveRuntime` — same catalog/config/workload inputs
as :class:`~repro.core.system.FederatedSystem`, live output through
:class:`LiveReport`.  It is the only runtime class; what runs beside the
engine is a list of services (:class:`RuntimeService`): the
:class:`Adaptation` loop, the :class:`Chaos` fault/recovery harness,
and :class:`~repro.control.Control` for the multi-tenant control plane
(DESIGN.md, "Runtime composition").
"""

from repro.live.adaptation import (
    Adaptation,
    AdaptationController,
    AdaptationSettings,
    LoadSampler,
    QueryMigrator,
)
from repro.live.channels import Batcher, ChannelClosed, LiveChannel
from repro.live.chaos import (
    Chaos,
    ChaosController,
    ChaosEvent,
    ChaosPolicy,
    ChaosSettings,
    VirtualClockLoop,
    format_script,
    parse_script,
    random_script,
)
from repro.live.entity_task import (
    FeedGate,
    LiveClock,
    LiveGateway,
    LiveProcessor,
    LiveSourceFeed,
    ResultCollector,
    TaskControl,
    TreeForwarder,
)
from repro.live.metrics import LiveMetrics, LiveReport, TransportStats
from repro.live.recovery import HeartbeatMonitor, RecoveryManager
from repro.live.runtime import (
    LiveDataflow,
    LiveRuntime,
    LiveSettings,
    RuntimeService,
    TransportStrategy,
)
from repro.live.transport import LiveTransport, TransportChaos, WorkTracker

__all__ = [
    "Adaptation",
    "AdaptationController",
    "AdaptationSettings",
    "Batcher",
    "FeedGate",
    "LoadSampler",
    "QueryMigrator",
    "ChannelClosed",
    "Chaos",
    "ChaosController",
    "ChaosEvent",
    "ChaosPolicy",
    "ChaosSettings",
    "HeartbeatMonitor",
    "LiveChannel",
    "LiveClock",
    "LiveDataflow",
    "LiveGateway",
    "LiveMetrics",
    "LiveProcessor",
    "LiveReport",
    "LiveRuntime",
    "LiveSettings",
    "LiveSourceFeed",
    "LiveTransport",
    "RecoveryManager",
    "ResultCollector",
    "RuntimeService",
    "TaskControl",
    "TransportChaos",
    "TransportStats",
    "TransportStrategy",
    "TreeForwarder",
    "VirtualClockLoop",
    "WorkTracker",
    "format_script",
    "parse_script",
    "random_script",
]
