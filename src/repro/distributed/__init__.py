"""Multi-process distributed runtime over a binary wire protocol.

Promotes the planned federation's entities from asyncio tasks in one
process (:mod:`repro.live`) to separate OS processes connected by real
sockets.  Planning stays deterministic, so workers re-derive the
identical federation from the planning *inputs* — only tuples, credits
and control frames cross process boundaries, in the compact
length-prefixed binary framing of :mod:`repro.distributed.codec`
(documented in ``docs/protocols.md`` §6).

Entry points: :class:`DistributedCoordinator` runs a federation across
N spawned workers (``python -m repro launch``); :func:`serve` is the
worker side (``python -m repro serve``).
"""

from repro.distributed.audit import (
    audit_distributed_run,
    audit_drain,
    audit_ledger,
    audit_links,
    run_distributed_smoke,
)
from repro.distributed.codec import (
    FrameDecoder,
    FrameError,
    decode_batch,
    encode_batch,
    encode_frame,
)
from repro.distributed.coordinator import DistributedCoordinator, merge_reports
from repro.distributed.links import (
    Admission,
    CreditGate,
    PeerConnection,
    RemoteOutbox,
)
from repro.distributed.placement import (
    cross_worker_links,
    entity_loads,
    partition_spread,
    partition_worker_spread,
    place_entities,
    place_feeds,
)
from repro.distributed.worker import (
    DistributedStrategy,
    DistributedWorker,
    serve,
)

__all__ = [
    "Admission",
    "CreditGate",
    "DistributedCoordinator",
    "DistributedStrategy",
    "DistributedWorker",
    "FrameDecoder",
    "FrameError",
    "PeerConnection",
    "RemoteOutbox",
    "audit_distributed_run",
    "audit_drain",
    "audit_ledger",
    "audit_links",
    "cross_worker_links",
    "decode_batch",
    "encode_batch",
    "encode_frame",
    "entity_loads",
    "merge_reports",
    "partition_spread",
    "partition_worker_spread",
    "place_entities",
    "place_feeds",
    "run_distributed_smoke",
    "serve",
]
