"""The live asyncio federation runtime.

:class:`LiveRuntime` takes the exact same inputs as the discrete-event
:class:`~repro.core.system.FederatedSystem` — a stream catalog, a
:class:`~repro.core.system.SystemConfig`, and a query workload — and
*executes* the planned federation concurrently instead of simulating
it.  Planning is not reimplemented: the runtime instantiates a
``FederatedSystem`` as its planner, lets it run allocation, delegation,
fragmentation, placement, and dissemination-tree construction exactly
as every experiment does, then lifts the resulting plans onto asyncio
tasks connected by bounded channels:

* one :class:`~repro.live.entity_task.LiveSourceFeed` per stream,
  replaying a seeded tuple trace (recorded from the planner's own
  sources, so a live run sees the same traffic as a simulated run with
  the same config and seed);
* one :class:`~repro.live.entity_task.LiveGateway` per entity;
* one :class:`~repro.live.entity_task.LiveProcessor` per LAN processor
  (the delegated stream processors of §4);
* a single result collector.

Flow control is structural: channels are bounded (backpressure), sends
are batched, and every send runs through the retry-with-timeout/backoff
transport, so overload degrades into measured drops instead of
unbounded queues or crashes.  The run finishes when every source trace
has been replayed and the dataflow is quiescent, then reports through
:class:`~repro.live.metrics.LiveReport`.
"""

from __future__ import annotations

import asyncio
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, TypeVar

from repro.core.entity import Entity
from repro.core.system import FederatedSystem, SystemConfig
from repro.dissemination.tree import SOURCE, DisseminationTree
from repro.live.channels import LAN, WAN, LiveChannel
from repro.live.entity_task import (
    LiveClock,
    LiveGateway,
    LiveProcessor,
    LiveSourceFeed,
    ResultCollector,
    TreeForwarder,
)
from repro.live.metrics import LiveMetrics, LiveReport, TransportStats
from repro.live.transport import LiveTransport, WorkTracker
from repro.query.spec import QuerySpec
from repro.streams.catalog import StreamCatalog
from repro.streams.tuples import StreamTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.control.quotas import TenantThrottle

# Bound on the run's one result channel (queued batches).
RESULT_CAPACITY = 1024


@dataclass(frozen=True)
class LiveSettings:
    """Execution knobs of the live runtime (planning knobs stay in
    :class:`~repro.core.system.SystemConfig`).

    Attributes:
        duration: Virtual seconds of source traffic to replay.
        time_scale: Wall seconds per virtual second (``0`` = replay as
            fast as possible; ``1`` = real time).
        channel_capacity: Bound on queued batches per entity/processor
            channel — the backpressure knob.
        batch_size: Tuples per transport batch.
        wan_latency / lan_latency: Modeled per-hop delivery latency in
            virtual seconds (scaled by ``time_scale`` into wall time;
            defaults match the simulated network's tier constants).  It
            delays each batch by that much, as ``Network.send`` delays
            each message; batches on one link do not queue behind each
            other's latency.
        send_timeout: Wall seconds one send attempt may block on a full
            channel before it counts as failed.
        max_retries: Retry budget per send; an exhausted budget drops
            the batch (surfaced as metrics, never an exception).
        backoff_base / backoff_max: Exponential retry backoff schedule
            (wall seconds, seeded jitter, growth
            :data:`~repro.live.transport.BACKOFF_FACTOR`).
    """

    duration: float = 5.0
    time_scale: float = 0.0
    channel_capacity: int = 256
    batch_size: int = 8
    wan_latency: float = 0.010
    lan_latency: float = 0.0005
    send_timeout: float = 0.25
    max_retries: int = 3
    backoff_base: float = 0.005
    backoff_max: float = 0.25

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.channel_capacity < 1:
            raise ValueError("channel_capacity must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


ServiceT = TypeVar("ServiceT", bound="RuntimeService")


class TransportStrategy:
    """How a runtime's dataflow maps onto transport substrates.

    The default strategy is fully in-process: every entity, stream
    feed, and the result collector live on this runtime's event loop,
    wired by bounded :class:`LiveChannel` FIFOs.  The distributed
    runtime (:mod:`repro.distributed`) substitutes a strategy whose
    non-local entity inboxes are socket-backed senders and whose result
    sink relays frames to the coordinator process — the rest of
    :class:`LiveRuntime` (planning, tasks, metrics, shutdown contract)
    is reused unchanged.
    """

    def bind(self, runtime: "LiveRuntime") -> None:
        """Attach the strategy to its runtime before dataflow build."""
        self.runtime = runtime

    def owns_entity(self, entity_id: str) -> bool:
        """Whether this runtime executes the entity's gateway/processors."""
        return True

    def owns_stream(self, stream_id: str) -> bool:
        """Whether this runtime replays the stream's source feed."""
        return True

    def inbox_for(
        self,
        entity_id: str,
        *,
        capacity: int,
        latency: float,
        tracker: WorkTracker,
    ) -> LiveChannel:
        """The channel-like peer carrying batches towards one entity.

        For a local entity this is its bounded inbox; a distributed
        strategy returns a remote sender implementing the same ``put``
        /``close`` contract for entities owned by another process (the
        remote sender settles sent batches with ``tracker``, since they
        leave this runtime's dataflow).
        """
        return LiveChannel(
            f"inbox/{entity_id}", capacity=capacity, tier=WAN, latency=latency
        )

    def result_consumer(self, flow: "LiveDataflow") -> "ResultCollector":
        """The task draining the result channel (collector or relay)."""
        runtime = self.runtime
        return ResultCollector(
            flow.result_channel, flow.tracker, runtime.metrics, flow.clock
        )

    async def wait_drained(self, flow: "LiveDataflow") -> None:
        """Block until the run, its feeds replayed, has drained.

        In-process, the work tracker is authoritative: every send adds
        its tuples before any consumer could remove them, so zero
        in-flight after the feeds finish means the run is done.  A
        distributed worker waits for the coordinator's federation-wide
        termination decision instead — its local tracker cannot see
        batches still crossing sockets.
        """
        await flow.tracker.wait_quiescent()


class RuntimeService:
    """A module that cooperates with a live run without being the engine.

    Adaptation, chaos/recovery and the control plane are services: a
    :class:`LiveRuntime` is handed a list of them and calls each of the
    three methods below on every one, in list order.  The defaults do
    nothing, so a service overrides only what it needs.
    """

    def attach(self, runtime: "LiveRuntime") -> None:
        """Construction time: adjust the runtime before anything is
        planned or built (settings, loop factory, throttle)."""

    def start(self, flow: "LiveDataflow") -> list[asyncio.Task]:
        """The dataflow is built and the loop is running: spawn the
        service's tasks.  They run beside the dataflow and are
        cancelled once it has drained."""
        return []

    def finish(self, report: LiveReport, flow: "LiveDataflow") -> LiveReport:
        """The run is over: return the report with the service's
        section attached."""
        return report


@dataclass
class LiveDataflow:
    """The wired-up moving parts of one live run.

    Built by :meth:`LiveRuntime.prepare` and handed to every service's
    :meth:`~RuntimeService.start` / :meth:`~RuntimeService.finish`, so
    modules like the chaos/recovery harness can reach every task,
    channel, and tree of the running federation without re-deriving
    the wiring.
    """

    clock: LiveClock
    tracker: WorkTracker
    tstats: TransportStats
    transport: LiveTransport
    inboxes: dict[str, LiveChannel]
    proc_channels: dict[str, dict[str, LiveChannel]]
    result_channel: LiveChannel
    trees: dict[str, DisseminationTree]
    gateways: dict[str, LiveGateway] = field(default_factory=dict)
    processors: dict[tuple[str, str], LiveProcessor] = field(
        default_factory=dict
    )
    feeds: list[LiveSourceFeed] = field(default_factory=list)
    collector: ResultCollector | None = None

    def rewire(self, entity: Entity) -> None:
        """(Re)load one entity's execution tables from its wiring.

        The single writer of the processors' ``fragments`` /
        ``downstream`` / ``head_routes`` tables (and of the ``heads``
        intake each processor derives from them): the ``entity.wiring``
        the planner derived (:meth:`~repro.core.entity.Entity.rewire`)
        is swapped in *in place* — the tables are shared with the
        running tasks — so an online change is "edit the model, call
        this".  The swap is synchronous; callers either hold the
        dataflow quiescent (lifecycle edits) or tolerate losing what was
        in flight (processor fail-over).  With tenant quotas on, every
        standalone head fragment is (re)bound to its owner's bucket.
        """
        wiring = entity.wiring
        # a crashed processor's task has left the model: its tables empty
        tasks = [
            task
            for (owner, __), task in self.processors.items()
            if owner == entity.entity_id
        ]
        # one head-route table and one throttle serve all of them
        head_routes, throttle = tasks[0].head_routes, tasks[0].throttle
        if throttle is not None:
            for routes in head_routes.values():
                for fragment_id, __ in routes:
                    throttle.unbind(fragment_id)
            for fragment_id, tenant in wiring.head_tenants.items():
                throttle.bind(fragment_id, tenant)
        for task in tasks:
            for table, derived in (
                (task.fragments, wiring.fragments.get(task.proc_id, {})),
                (task.downstream, wiring.downstream.get(task.proc_id, {})),
            ):
                table.clear()
                table.update(derived)
        head_routes.clear()
        head_routes.update(wiring.head_routes)
        for task in tasks:
            task.load_heads()

    def all_channels(self) -> list[LiveChannel]:
        """Every channel of the dataflow (inboxes, LAN, results)."""
        return (
            list(self.inboxes.values())
            + [
                ch
                for per_entity in self.proc_channels.values()
                for ch in per_entity.values()
            ]
            + [self.result_channel]
        )

    def entity_of_processor(self, proc_id: str) -> str | None:
        """The entity owning one LAN processor (``None`` if unknown)."""
        for entity_id, proc in self.processors:
            if proc == proc_id:
                return entity_id
        return None


class LiveRuntime:
    """Plan with the simulator's machinery, execute with asyncio."""

    def __init__(
        self,
        catalog: StreamCatalog,
        config: SystemConfig,
        settings: LiveSettings | None = None,
        *,
        strategy: TransportStrategy | None = None,
        services: Sequence[RuntimeService] = (),
    ) -> None:
        self.catalog = catalog
        self.config = config
        self.settings = settings or LiveSettings()
        self.strategy = strategy or TransportStrategy()
        self.strategy.bind(self)
        # The planner is a full FederatedSystem; submit() runs the real
        # allocation/delegation/placement/dissemination planning.  Its
        # simulator is used once, to record the seeded source trace.
        self.planner = FederatedSystem(catalog, config)
        self.metrics = LiveMetrics()
        # Tenant intake throttle, handed to every processor.
        self.throttle: "TenantThrottle | None" = None
        self.report: LiveReport | None = None
        self.dataflow: LiveDataflow | None = None
        self.loop_factory: Callable[[], asyncio.AbstractEventLoop] | None = None
        self._duration = 0.0
        self._ran = False
        self.services = list(services)
        for service in self.services:
            service.attach(self)

    def service(self, kind: type[ServiceT]) -> ServiceT | None:
        """The listed service of type ``kind`` (``None`` if not listed)."""
        for service in self.services:
            if isinstance(service, kind):
                return service
        return None

    # ------------------------------------------------------------------
    def submit(self, queries: list[QuerySpec]) -> None:
        """Allocate and place a workload (delegates to the planner)."""
        self.planner.submit(queries)

    @property
    def results(self) -> dict[str, list[StreamTuple]]:
        """Collected result tuples per query (after :meth:`run`)."""
        return self.metrics.results_by_query

    # ------------------------------------------------------------------
    def run(self, duration: float | None = None) -> LiveReport:
        """Replay ``duration`` virtual seconds of traffic live.

        Blocking façade over :meth:`prepare` + :meth:`execute`; a
        runtime instance is single-use (operator state and the trace
        position are consumed).  With :attr:`loop_factory` set (the
        chaos service's virtual clock) the run is driven on a loop built
        by that factory instead of the default selector loop.
        """
        self.prepare(duration)
        with asyncio.Runner(loop_factory=self.loop_factory) as runner:
            return runner.run(self.execute())

    def prepare(
        self,
        duration: float | None = None,
        traces: dict[str, list[tuple[float, StreamTuple]]] | None = None,
    ) -> LiveDataflow:
        """Plan-to-dataflow without running it (trace + channel graph).

        Split from execution so a distributed worker can build its
        inboxes — which peer admission tasks need — before reporting
        READY, while feeds only start replaying on the coordinator's
        START.  ``traces`` replays an already recorded source trace
        (the sanitizer records one per scenario and shares it across
        schedules) instead of recording this planner's.
        """
        if self._ran:
            raise RuntimeError("a LiveRuntime instance is single-use")
        if self.planner.allocation_result is None:
            raise RuntimeError("submit() a workload before running")
        self._ran = True
        self._duration = self.settings.duration if duration is None else duration
        if traces is None:
            traces = self._record_trace(self._duration)
        self.dataflow = self._build_dataflow(traces)
        return self.dataflow

    # ------------------------------------------------------------------
    def _record_trace(
        self, duration: float
    ) -> dict[str, list[tuple[float, StreamTuple]]]:
        """Record each source's seeded emission trace.

        The planner's dissemination runtimes are detached first so the
        recording run fires *only* source events; since nothing else in
        the federation consumes the simulator's RNG at runtime, the
        recorded trace is tuple-for-tuple identical to the traffic a
        full simulated run of the same config and seed would see.
        """
        planner = self.planner
        for runtime in planner.dissemination.values():
            runtime.detach_source()
        traces: dict[str, list[tuple[float, StreamTuple]]] = {
            stream_id: [] for stream_id in planner.sources
        }
        unsubscribes = []
        for stream_id, source in planner.sources.items():
            def record(tup, _trace=traces[stream_id]):
                _trace.append((planner.sim.now, tup))

            unsubscribes.append(source.subscribe(record))
            source.start()
        planner.sim.run(until=planner.sim.now + duration)
        for source in planner.sources.values():
            source.stop()
        for unsubscribe in unsubscribes:
            unsubscribe()
        return traces

    # ------------------------------------------------------------------
    def _build_dataflow(
        self, traces: dict[str, list[tuple[float, StreamTuple]]]
    ) -> LiveDataflow:
        """Lift the planner's deployment onto channels and tasks."""
        settings = self.settings
        planner = self.planner
        config = self.config

        clock = LiveClock(settings.time_scale)
        tracker = WorkTracker()
        tstats = TransportStats()
        transport = LiveTransport(
            stats=tstats,
            tracker=tracker,
            rng=random.Random(config.seed ^ 0x11FE),
            send_timeout=settings.send_timeout,
            max_retries=settings.max_retries,
            backoff_base=settings.backoff_base,
            backoff_max=settings.backoff_max,
        )

        wan_wall = settings.wan_latency * settings.time_scale
        lan_wall = settings.lan_latency * settings.time_scale

        # --- channel graph -------------------------------------------
        # The strategy decides what carries batches towards each entity
        # (a local bounded channel, or a socket-backed remote sender);
        # LAN processor channels are always local to the entity's owner.
        strategy = self.strategy
        inboxes = {
            entity_id: strategy.inbox_for(
                entity_id,
                capacity=settings.channel_capacity,
                latency=wan_wall,
                tracker=tracker,
            )
            for entity_id in planner.entities
        }
        proc_channels: dict[str, dict[str, LiveChannel]] = {}
        for entity_id, entity in planner.entities.items():
            if not strategy.owns_entity(entity_id):
                continue
            proc_channels[entity_id] = {
                proc_id: LiveChannel(
                    f"proc/{proc_id}",
                    capacity=settings.channel_capacity,
                    tier=LAN,
                    latency=lan_wall,
                )
                for proc_id in entity.processors
            }
        result_channel = LiveChannel(
            "results",
            capacity=RESULT_CAPACITY,
            tier=LAN,
            latency=0.0,
        )

        trees = {
            stream_id: runtime.tree
            for stream_id, runtime in planner.dissemination.items()
        }

        flow = LiveDataflow(
            clock=clock,
            tracker=tracker,
            tstats=tstats,
            transport=transport,
            inboxes=inboxes,
            proc_channels=proc_channels,
            result_channel=result_channel,
            trees=trees,
        )

        # --- per-entity tasks -----------------------------------------
        # (only the entities this runtime owns get executing tasks)
        for entity_id, entity in planner.entities.items():
            if not strategy.owns_entity(entity_id):
                continue
            forwarder = TreeForwarder(
                entity_id,
                trees,
                inboxes,
                transport,
                self.metrics,
                batch_size=settings.batch_size,
                early_filtering=config.early_filtering,
                transform=config.transform_at_ancestors,
            )
            flow.gateways[entity_id] = LiveGateway(
                entity_id,
                inboxes[entity_id],
                forwarder,
                entity.delegation,
                proc_channels[entity_id],
                transport,
                tracker,
                self.metrics,
                clock,
                batch_size=settings.batch_size,
            )
            head_routes: dict[str, list[tuple[str, str]]] = {}
            for proc_id in entity.processors:
                flow.processors[(entity_id, proc_id)] = LiveProcessor(
                    entity_id,
                    proc_id,
                    proc_channels[entity_id][proc_id],
                    head_routes,
                    proc_channels[entity_id],
                    result_channel,
                    transport,
                    tracker,
                    self.metrics,
                    clock,
                    batch_size=settings.batch_size,
                    throttle=self.throttle,
                )
            # Fragments, out-edges and delegate head routes come off the
            # planner's hosting model; a run starts from fresh operator
            # and router state.
            entity.reset_state()
            flow.rewire(entity)

        flow.collector = strategy.result_consumer(flow)
        flow.feeds = [
            LiveSourceFeed(
                stream_id,
                trace,
                TreeForwarder(
                    SOURCE,
                    {stream_id: trees[stream_id]},
                    inboxes,
                    transport,
                    self.metrics,
                    batch_size=settings.batch_size,
                    early_filtering=config.early_filtering,
                    transform=config.transform_at_ancestors,
                ),
                clock,
                self.metrics,
            )
            for stream_id, trace in traces.items()
            if stream_id in trees and strategy.owns_stream(stream_id)
        ]
        return flow

    async def _shutdown(
        self,
        flow: LiveDataflow,
        gateway_tasks: list[asyncio.Task],
        proc_tasks: list[asyncio.Task],
        collector_task: asyncio.Task | None,
    ) -> None:
        """Close the dataflow tier by tier (flush-before-close).

        A closed channel still drains its queued batches to ``get`` but
        rejects new ``put``s — so closing every channel at once lets a
        consumer that still holds queued input race its own downstream
        close and silently drop tail batches through the transport's
        ChannelClosed path.  The contract is therefore staged: a tier's
        output channels are closed only *after* the tier above it has
        fully exited, so whatever a task drains post-close still has a
        live downstream to flush into.  The differential matrix and the
        live runtime tests assert the consequence: zero drops and zero
        residual depth on every channel after a clean run.
        """
        for entity_id in sorted(flow.inboxes):
            await flow.inboxes[entity_id].close()
        await asyncio.gather(*gateway_tasks)
        for entity_id in sorted(flow.proc_channels):
            for proc_id in sorted(flow.proc_channels[entity_id]):
                await flow.proc_channels[entity_id][proc_id].close()
        await asyncio.gather(*proc_tasks)
        await flow.result_channel.close()
        if collector_task is not None:
            await collector_task

    # ------------------------------------------------------------------
    async def execute(self) -> LiveReport:
        """Run the prepared dataflow until it has drained."""
        flow = self.dataflow
        extras = [
            task for service in self.services for task in service.start(flow)
        ]

        # --- run to quiescence ---------------------------------------
        self.metrics.start_clock()
        gateway_tasks = [
            asyncio.create_task(g.run(), name=f"live:gateway/{entity_id}")
            for entity_id, g in flow.gateways.items()
        ]
        proc_tasks = [
            asyncio.create_task(p.run(), name=f"live:proc/{proc_id}")
            for (__, proc_id), p in flow.processors.items()
        ]
        collector_task = (
            asyncio.create_task(flow.collector.run(), name="live:results")
            if flow.collector is not None
            else None
        )
        feed_tasks = [
            asyncio.create_task(feed.run(), name=f"live:src/{feed.stream_id}")
            for feed in flow.feeds
        ]
        try:
            await asyncio.gather(*feed_tasks)
            await self.strategy.wait_drained(flow)
        finally:
            for task in extras:
                task.cancel()
            if extras:
                # Cancellation is the expected way down for auxiliary
                # tasks; anything else is a crash that must not be
                # swallowed by the gather (named tasks keep the report
                # attributable).
                outcomes = await asyncio.gather(
                    *extras, return_exceptions=True
                )
                for task, outcome in zip(extras, outcomes):
                    if isinstance(outcome, Exception):
                        raise RuntimeError(
                            f"auxiliary task {task.get_name()} crashed"
                        ) from outcome
            await self._shutdown(
                flow, gateway_tasks, proc_tasks, collector_task
            )
        self.metrics.stop_clock()

        report = self.metrics.build_report(
            duration=self._duration,
            transport=flow.tstats,
            entity_queue_depth={
                entity_id: channel.depth
                for entity_id, channel in flow.inboxes.items()
            },
            entity_queue_high_water={
                entity_id: channel.high_water
                for entity_id, channel in flow.inboxes.items()
            },
            blocked_puts=sum(
                ch.blocked_puts for ch in flow.all_channels()
            ),
            entity_query_count={
                entity_id: entity.query_count
                for entity_id, entity in self.planner.entities.items()
            },
        )
        for service in self.services:
            report = service.finish(report, flow)
        self.report = report
        return report
