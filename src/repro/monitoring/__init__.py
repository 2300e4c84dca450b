"""Load monitoring up the coordinator tree.

§3.2.1: "A higher level coordinator distributes queries based on
coarser information."  This package produces that information: each
entity samples its own processors, reports to its leaf coordinator, and
reports aggregate level by level toward the root — so a coordinator at
level L knows only per-subtree totals, never per-processor detail.  The
message cost of keeping the hierarchy informed is measured, and the
router can be driven from these (slightly stale) aggregates instead of
its own bookkeeping.
"""

from repro.monitoring.collectors import EntityLoadCollector
from repro.monitoring.recovery import RecoveryReport
from repro.monitoring.reports import LoadReport, SubtreeLoad
from repro.monitoring.service import MonitoringService

__all__ = [
    "LoadReport",
    "SubtreeLoad",
    "EntityLoadCollector",
    "MonitoringService",
    "RecoveryReport",
]
