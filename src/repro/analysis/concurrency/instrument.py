"""Wire an :class:`HBMonitor` into a live runtime.

Everything here is per-instance monkey wrapping, installed by the
:class:`Instrumentation` service the explorer lists last on its
scenario runtimes — production runtimes never pay for it.  Three kinds
of hooks:

* **synchronization edges** — the runtime's real ordering devices
  (``LiveChannel`` try_put/get, ``WorkTracker`` done/wait_quiescent,
  ``FeedGate`` close/open/wait_open, ``CreditGate``
  try_acquire/acquire/release) become vector-clock release/acquire
  points — the blocking ``put`` enqueues through ``try_put``, so it
  needs no hook of its own;
* **serialized sections** — the control plane's synchronous mutation
  blocks (the planner's lifecycle edits, the live rewire that loads
  them, rebalance, abort repair) run atomically on the single-threaded
  loop, so they chain through one shared token in observed order;
* **tracked state** — the shared dicts migration can corrupt (head
  routes and the intake derived from them, fragment/downstream tables,
  hosted/sharing maps, delegation tables, partition specs) are wrapped
  in :class:`TrackedState`.  The execution tables are re-derived *in
  place* on every change (``LiveDataflow.rewire``), so the wrappers
  installed here keep seeing every write.

The per-tuple metrics dicts are deliberately *not* tracked: the load
sampler reads them unsynchronized by design (stale samples only skew
heuristics, never results), and tracking them would bury real races in
noise.
"""

from __future__ import annotations

import asyncio
import functools
from collections.abc import Awaitable, Callable
from typing import Any

from repro.analysis.concurrency.hb import HBMonitor, TrackedState
from repro.distributed.links import CreditGate
from repro.live.channels import LiveChannel
from repro.live.adaptation import Adaptation
from repro.live.entity_task import FeedGate
from repro.live.runtime import LiveDataflow, LiveRuntime, RuntimeService
from repro.live.transport import WorkTracker

__all__ = [
    "Instrumentation",
    "install_runtime_instrumentation",
    "wrap_credit_gate",
]

#: State-name prefixes that may only be written under full quiescence.
PROTECTED_PREFIXES: tuple[str, ...] = (
    "head_routes/",
    "heads/",
    "fragments/",
    "downstream/",
    "hosted/",
    "sharing/",
    "delegation/",
    "partition",
)


def wrap_channel(channel: LiveChannel, monitor: HBMonitor) -> None:
    """Channel hand-off = release at ``try_put``, acquire after ``get``.

    Every enqueue goes through ``try_put`` — the transport calls it
    directly, the blocking ``put`` calls it once per wake-up — so that
    is the one producer-side hook.
    """
    orig_try_put: Callable[[Any], bool] = channel.try_put
    orig_get: Callable[[], Awaitable[Any]] = channel.get

    def try_put(item: Any) -> bool:
        # Release *before* the enqueue: the consumer may run between
        # the append and the producer resuming, and must already see
        # the producer's clock when it acquires.
        monitor.sync_release(channel)
        return orig_try_put(item)

    async def get() -> Any:
        item = await orig_get()
        monitor.sync_acquire(channel)
        return item

    channel.try_put = try_put  # type: ignore[method-assign]
    channel.get = get  # type: ignore[method-assign]


def wrap_tracker(tracker: WorkTracker, monitor: HBMonitor) -> None:
    """``done`` publishes the worker's clock; quiescence absorbs all."""
    orig_done = tracker.done
    orig_wait = tracker.wait_quiescent

    def done(n: int = 1) -> None:
        monitor.sync_release(tracker)
        orig_done(n)

    async def wait_quiescent() -> None:
        await orig_wait()
        monitor.sync_acquire(tracker)

    tracker.done = done  # type: ignore[method-assign]
    tracker.wait_quiescent = wait_quiescent  # type: ignore[method-assign]


def wrap_gate(gate: FeedGate, monitor: HBMonitor) -> None:
    """Gate reopen publishes the mutator's clock to every parked feed."""
    orig_close = gate.close
    orig_open = gate.open
    orig_wait = gate.wait_open

    def close() -> None:
        monitor.sync_release(gate)
        orig_close()

    def open_() -> None:
        monitor.sync_release(gate)
        orig_open()

    async def wait_open() -> None:
        await orig_wait()
        monitor.sync_acquire(gate)

    gate.close = close  # type: ignore[method-assign]
    gate.open = open_  # type: ignore[method-assign]
    gate.wait_open = wait_open  # type: ignore[method-assign]


def wrap_credit_gate(gate: CreditGate, monitor: HBMonitor, label: str) -> None:
    """Credit edges plus the DRD004 window-bound check after release."""
    orig_try_acquire = gate.try_acquire
    orig_acquire = gate.acquire
    orig_release = gate.release

    def try_acquire(n: int = 1) -> bool:
        taken = orig_try_acquire(n)
        if taken:
            monitor.sync_acquire(gate)
        return taken

    async def acquire(n: int = 1) -> None:
        await orig_acquire(n)
        monitor.sync_acquire(gate)

    async def release(n: int = 1) -> None:
        monitor.sync_release(gate)
        await orig_release(n)
        monitor.on_credit_release(label, gate.available, gate.initial)

    gate.try_acquire = try_acquire  # type: ignore[method-assign]
    gate.acquire = acquire  # type: ignore[method-assign]
    gate.release = release  # type: ignore[method-assign]


def _wrap_serialized(obj: Any, name: str, monitor: HBMonitor, token: object) -> None:
    orig = getattr(obj, name)

    @functools.wraps(orig)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        monitor.serialized_enter(token)
        try:
            return orig(*args, **kwargs)
        finally:
            monitor.serialized_exit(token)

    setattr(obj, name, wrapper)


def install_runtime_instrumentation(monitor: HBMonitor, runtime: LiveRuntime, flow: LiveDataflow) -> None:
    """Hook every shared-state access path of a built dataflow.

    Must run after the runtime's :class:`~repro.live.adaptation.
    Adaptation` service started (so the migrator exists) and before the
    dataflow tasks start (so no access goes unrecorded).
    """
    monitor.protected.update(PROTECTED_PREFIXES)
    monitor.quiescent = lambda: flow.tracker.in_flight == 0

    # -- synchronization edges ----------------------------------------
    wrap_tracker(flow.tracker, monitor)
    for channel in flow.all_channels():
        wrap_channel(channel, monitor)
    adaptation = runtime.service(Adaptation)
    if adaptation is not None:
        wrap_gate(adaptation.gate, monitor)

    # -- serialized control-plane mutation sections -------------------
    token = object()
    planner = runtime.planner
    for name in ("edit", "settle"):
        _wrap_serialized(planner, name, monitor, token)
    _wrap_serialized(flow, "rewire", monitor, token)
    if adaptation is not None:
        _wrap_serialized(adaptation.migrator, "_abort_repair", monitor, token)

    # -- tracked shared state -----------------------------------------
    for entity_id, entity in planner.entities.items():
        entity.hosted = TrackedState(entity.hosted, monitor, f"hosted/{entity_id}")
        entity.shared = TrackedState(entity.shared, monitor, f"sharing/{entity_id}")
        scheme = entity.delegation
        table = scheme._delegate  # repro: allow[INV001] wrapping internal table
        scheme._delegate = TrackedState(  # repro: allow[INV001] wrapping internal table
            table, monitor, f"delegation/{entity_id}"
        )
        for hosted in entity.hosted.values():
            deployment = getattr(hosted, "partition", None)
            if deployment is not None:
                _wrap_router(deployment, monitor, token)

    shared_tables: dict[int, TrackedState] = {}
    for (entity_id, proc_id), proc in flow.processors.items():
        table = shared_tables.get(id(proc.head_routes))
        if table is None:
            table = TrackedState(proc.head_routes, monitor, f"head_routes/{entity_id}")
            shared_tables[id(proc.head_routes)] = table
        proc.head_routes = table
        proc.heads = TrackedState(proc.heads, monitor, f"heads/{proc_id}")
        proc.fragments = TrackedState(proc.fragments, monitor, f"fragments/{proc_id}")
        proc.downstream = TrackedState(proc.downstream, monitor, f"downstream/{proc_id}")


class Instrumentation(RuntimeService):
    """The monitor's hooks as a runtime service; list it last, so its
    ``start`` runs once every other service has built what it wraps."""

    def __init__(self, monitor: HBMonitor) -> None:
        self.monitor = monitor

    def attach(self, runtime: LiveRuntime) -> None:
        self.runtime = runtime

    def start(self, flow: LiveDataflow) -> list[asyncio.Task[Any]]:
        install_runtime_instrumentation(self.monitor, self.runtime, flow)
        return []


def _wrap_router(deployment: Any, monitor: HBMonitor, token: object) -> None:
    """Partition spec: ``route`` reads it, ``repartition`` swaps it."""
    router = deployment.router
    query_id = deployment.query_id
    orig_route = router.route
    orig_repartition = router.repartition

    def route(tup: Any) -> Any:
        monitor.on_read("partition", query_id)
        return orig_route(tup)

    def repartition(spec: Any) -> Any:
        monitor.serialized_enter(token)
        try:
            monitor.on_write("partition", query_id)
            return orig_repartition(spec)
        finally:
            monitor.serialized_exit(token)

    router.route = route
    router.repartition = repartition
