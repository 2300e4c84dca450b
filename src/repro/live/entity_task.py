"""The concurrent tasks of a live federation.

One coroutine per moving part, mirroring the paper's Figure 1/Figure 3
roles exactly:

* :class:`LiveSourceFeed` — replays one stream's tuple trace at the
  source and forwards into the dissemination tree's first hops;
* :class:`LiveGateway` — one per entity: receives tuples on the entity
  inbox, relays to tree children (applying the §3.1 early filtering and
  optional transforming *via the planner's own tree*), and hands local
  intake to the stream's delegation processor (§4, Figure 3);
* :class:`LiveProcessor` — one per LAN processor: routes delegate
  intake to the head fragments of the hosted queries and pushes tuples
  through the engine's :class:`~repro.engine.plan.Fragment` chains,
  hopping LAN channels between fragments placed on different
  processors;
* :class:`ResultCollector` — drains the result channel and accounts
  per-query results.

All planning artefacts — trees, filters, delegation, fragments,
placements — are reused from the discrete-event planner unchanged; only
the execution substrate differs (asyncio channels instead of simulated
network sends).
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.core.wiring import Edge, ToPartitions, ToResult, ToTaps
from repro.dissemination.tree import SOURCE, DisseminationTree
from repro.engine.plan import Fragment
from repro.live.channels import Batcher, ChannelClosed, LiveChannel
from repro.live.metrics import LiveMetrics
from repro.live.transport import LiveTransport, WorkTracker
from repro.placement.delegation import DelegationScheme
from repro.streams.tuples import StreamTuple

class LiveClock:
    """The run's virtual clock, advanced by the source feeds.

    ``time_scale`` is wall seconds per virtual second: ``1.0`` replays
    in real time, ``0.0`` replays as fast as the hardware allows.
    """

    def __init__(self, time_scale: float = 0.0) -> None:
        if time_scale < 0:
            raise ValueError("time_scale must be >= 0")
        self.time_scale = time_scale
        self._virtual = 0.0
        # Loop time of virtual 0, anchored by the first scaled pace().
        self._epoch: float | None = None
        self._advanced = asyncio.Event()

    @property
    def now(self) -> float:
        """Current virtual time (max over all source feeds)."""
        return self._virtual

    async def pace(self, t: float) -> None:
        """Sleep until virtual time ``t`` is due (no-op when unscaled).

        Deadlines are absolute — ``epoch + t * time_scale`` on the
        loop's clock — so a late wake-up shortens the next sleep instead
        of pushing every later emission back, and a tuple that is
        already due is not slept for at all.
        """
        if t > self._virtual:
            if self.time_scale > 0.0:
                now = asyncio.get_running_loop().time()
                if self._epoch is None:
                    self._epoch = now - self._virtual * self.time_scale
                delay = self._epoch + t * self.time_scale - now
                if delay > 0.0:
                    await asyncio.sleep(delay)
            self._virtual = max(self._virtual, t)
            self._advanced.set()

    async def wait_until(self, t: float) -> None:
        """Block until virtual time reaches ``t``.

        The clock only moves when a source feed paces it forward, so a
        waiter simply sleeps on the advancement event between checks —
        the adaptation loop uses this to run its control period on
        virtual time regardless of ``time_scale``.
        """
        while self._virtual < t:
            self._advanced.clear()
            if self._virtual >= t:
                break
            await self._advanced.wait()


class TaskControl:
    """Chaos hook on one live task: crash it, or stall and resume it.

    Every gateway and processor owns one and polls :meth:`checkpoint`
    between batches.  A *stall* models a slow consumer — the task stops
    draining its inbox, so backpressure propagates upstream — and is
    reversible; a *crash* is final.  A crashed task's inbox is failed
    separately (see :meth:`LiveChannel.fail`) so blocked peers wake.
    """

    def __init__(self) -> None:
        self._crashed = False
        self._resume = asyncio.Event()
        self._resume.set()

    @property
    def crashed(self) -> bool:
        """Whether the task has been killed."""
        return self._crashed

    @property
    def stalled(self) -> bool:
        """Whether the task is currently paused."""
        return not self._resume.is_set()

    def crash(self) -> None:
        """Kill the task (also releases a concurrent stall)."""
        self._crashed = True
        self._resume.set()

    def stall(self) -> None:
        """Pause the task at its next checkpoint."""
        if not self._crashed:
            self._resume.clear()

    def resume(self) -> None:
        """Release a stall."""
        self._resume.set()

    async def checkpoint(self) -> bool:
        """Wait out any stall; return ``True`` when the task must die."""
        await self._resume.wait()
        return self._crashed


class FeedGate:
    """Pause point shared by every source feed of one run.

    The query-migration protocol closes the gate, waits for the dataflow
    to drain, moves fragments (with their operator state), and reopens
    it.  Feeds await the gate before every emission, so while it is
    closed no new tuple enters the federation and quiescence is
    reachable.

    Close/open pairs nest: the adaptation loop and the control plane
    both quiesce the same dataflow from independent tasks, so the gate
    counts closers and only reopens when the last one has finished.
    Both protocols drain before mutating anything, which makes their
    interleavings safe once the gate cannot be reopened prematurely.
    """

    def __init__(self) -> None:
        self._open = asyncio.Event()
        self._open.set()
        self._waiting = 0
        self._closers = 0

    @property
    def is_open(self) -> bool:
        """Whether feeds may currently emit."""
        return self._open.is_set()

    @property
    def waiting(self) -> int:
        """Feeds currently parked at the closed gate."""
        return self._waiting

    def close(self) -> None:
        """Stop all feeds at their next emission point."""
        self._closers += 1
        self._open.clear()

    def open(self) -> None:
        """Release one closer; feeds resume when none remain."""
        self._closers = max(0, self._closers - 1)
        if self._closers == 0:
            self._open.set()

    async def wait_open(self) -> None:
        """Feed side: block while the gate is closed."""
        self._waiting += 1
        try:
            await self._open.wait()
        finally:
            self._waiting -= 1


class TreeForwarder:
    """Forwards tuples across one node's dissemination-tree edges.

    Shared by the source feeds (``node = SOURCE``) and the gateways
    (``node = entity_id``): per child, apply the subtree's aggregate
    filter (early filtering), optionally project down to the subtree's
    declared attributes (transforming), batch, and send.
    """

    def __init__(
        self,
        node: str,
        trees: dict[str, DisseminationTree],
        channels: dict[str, LiveChannel],
        transport: LiveTransport,
        metrics: LiveMetrics,
        *,
        batch_size: int = 8,
        early_filtering: bool = True,
        transform: bool = False,
        bytes_per_attribute: float = 8.0,
    ) -> None:
        self.node = node
        self.trees = trees
        self.channels = channels
        self.transport = transport
        self.metrics = metrics
        self.batch_size = batch_size
        self.early_filtering = early_filtering
        self.transform = transform
        self.bytes_per_attribute = bytes_per_attribute
        self._batchers: dict[str, Batcher] = {}

    def _batcher(self, child: str) -> Batcher:
        batcher = self._batchers.get(child)
        if batcher is None:
            batcher = self._batchers[child] = Batcher(self.batch_size)
        return batcher

    async def forward(self, tup: StreamTuple) -> None:
        """Relay one tuple towards every interested child subtree."""
        tree = self.trees.get(tup.stream_id)
        if tree is None:
            return
        if self.node != SOURCE and not tree.contains(self.node):
            return
        for child in tree.children_of(self.node):
            if self.early_filtering and not tree.needs_tuple(
                child, tup.values
            ):
                self.metrics.filtered_edges += 1
                continue
            payload = tup
            if self.transform:
                payload = self._project_for(tree, child, tup)
            self.metrics.forwarded_edges += 1
            full = self._batcher(child).add(payload)
            if full is not None:
                await self.transport.send(self.channels[child], full)

    async def forward_batch(self, batch: list[StreamTuple]) -> None:
        """Relay a whole batch without unbatching it.

        Consecutive same-stream runs are filtered per child edge with
        the tree's compiled aggregate kernel in one pass; the per-child
        tuple order (and therefore everything downstream sees) is
        identical to calling :meth:`forward` per tuple.
        """
        start, n = 0, len(batch)
        while start < n:
            stream_id = batch[start].stream_id
            end = start + 1
            while end < n and batch[end].stream_id == stream_id:
                end += 1
            await self._forward_run(stream_id, batch[start:end])
            start = end

    async def _forward_run(
        self, stream_id: str, run: list[StreamTuple]
    ) -> None:
        """Forward one same-stream run across this node's tree edges."""
        tree = self.trees.get(stream_id)
        if tree is None:
            return
        if self.node != SOURCE and not tree.contains(self.node):
            return
        for child in tree.children_of(self.node):
            if self.early_filtering:
                kept = tree.filter_batch(child, run)
                self.metrics.filtered_edges += len(run) - len(kept)
                if not kept:
                    continue
            else:
                kept = run
            if self.transform:
                kept = [
                    self._project_for(tree, child, tup) for tup in kept
                ]
            self.metrics.forwarded_edges += len(kept)
            for full in self._batcher(child).add_many(kept):
                await self.transport.send(self.channels[child], full)

    def _project_for(
        self, tree: DisseminationTree, child: str, tup: StreamTuple
    ) -> StreamTuple:
        """§3.1 "transforming": shrink to the subtree's attribute need."""
        needed = tree.subtree_attributes(child)
        if needed is None:
            return tup
        kept = [name for name in tup.values if name in needed]
        if len(kept) == len(tup.values) or not kept:
            return tup
        return tup.project(kept, size=self.bytes_per_attribute * len(kept))

    async def flush(self) -> None:
        """Send every partial batch."""
        for child, batcher in self._batchers.items():
            batch = batcher.take()
            if batch is not None:
                await self.transport.send(self.channels[child], batch)


class LiveSourceFeed:
    """Replays one stream's pre-recorded trace into the federation."""

    def __init__(
        self,
        stream_id: str,
        trace: list[tuple[float, StreamTuple]],
        forwarder: TreeForwarder,
        clock: LiveClock,
        metrics: LiveMetrics,
        *,
        batch_linger: float = 0.05,
        gate: FeedGate | None = None,
    ) -> None:
        self.stream_id = stream_id
        self.trace = trace
        self.forwarder = forwarder
        self.clock = clock
        self.metrics = metrics
        self.batch_linger = batch_linger
        self.gate = gate
        # True once the trace is fully replayed; the migration protocol
        # uses it to know how many feeds can still reach the gate.
        self.finished = False

    async def run(self) -> None:
        """Pace through the trace; flush lingering batches; finish."""
        pending_since: float | None = None
        for index, (t, tup) in enumerate(self.trace):
            await self.clock.pace(t)
            if self.gate is not None and not self.gate.is_open:
                # migration in progress: flush so the drain observes
                # every tuple emitted so far, then wait at the gate
                await self.forwarder.flush()
                await self.gate.wait_open()
            self.metrics.record_ingest()
            await self.forwarder.forward(tup)
            if pending_since is None:
                pending_since = t
            # In scaled (wall-paced) runs a partial batch must not sit
            # for ever waiting to fill: flush once the gap to the next
            # emission would exceed the linger bound.
            if self.clock.time_scale > 0.0 and index + 1 < len(self.trace):
                next_t = self.trace[index + 1][0]
                if next_t - pending_since >= self.batch_linger:
                    await self.forwarder.flush()
                    pending_since = None
        await self.forwarder.flush()
        self.finished = True


class LiveGateway:
    """One entity's gateway task: relay downstream, delegate inward."""

    def __init__(
        self,
        entity_id: str,
        inbox: LiveChannel,
        forwarder: TreeForwarder,
        delegation: DelegationScheme,
        proc_channels: dict[str, LiveChannel],
        transport: LiveTransport,
        tracker: WorkTracker,
        metrics: LiveMetrics,
        clock: LiveClock,
        *,
        batch_size: int = 8,
        service_wall: float = 0.0,
    ) -> None:
        self.entity_id = entity_id
        self.inbox = inbox
        self.forwarder = forwarder
        self.delegation = delegation
        self.proc_channels = proc_channels
        self.transport = transport
        self.tracker = tracker
        self.metrics = metrics
        self.clock = clock
        self.service_wall = service_wall
        self.control = TaskControl()
        self._proc_batchers = {
            proc: Batcher(batch_size) for proc in proc_channels
        }
        # Delegate replay buffers: per stream, the most recent tuples
        # handed to the delegation processor.  Disabled (no history)
        # unless the chaos/recovery layer calls enable_replay().
        self._replay_depth = 0
        self._recent: dict[str, deque[StreamTuple]] = {}

    def enable_replay(self, depth: int) -> None:
        """Keep the last ``depth`` delegated tuples per stream for
        failover replay (used by the recovery layer)."""
        self._replay_depth = max(0, depth)

    def recent_delegated(self, stream_id: str) -> list[StreamTuple]:
        """Buffered tuples of one stream, oldest first."""
        return list(self._recent.get(stream_id, ()))

    async def run(self) -> None:
        """Consume the inbox until the runtime closes it (or chaos
        crashes this gateway)."""
        while True:
            if await self.control.checkpoint():
                break
            try:
                batch = await self.inbox.get()
            except ChannelClosed:
                break
            await self._handle_batch(batch)
            await self.forwarder.flush()
            await self._flush_procs()
            self.tracker.done(len(batch))

    async def _handle_batch(self, batch: list[StreamTuple]) -> None:
        """Process one inbox batch without unbatching it.

        Deliveries are recorded in order, the whole batch is relayed to
        child entities first (the paper's cooperative duty) via
        :meth:`TreeForwarder.forward_batch`, and delegate intake is
        appended to the per-processor batchers in arrival order.
        """
        now = self.clock.now
        record = self.metrics.record_delivery
        for tup in batch:
            record(self.entity_id, tup, now)
        if self.service_wall > 0.0:
            await asyncio.sleep(self.service_wall * len(batch))
        await self.forwarder.forward_batch(batch)
        delegate_of = self.delegation.delegate_of
        proc_channels = self.proc_channels
        replay_depth = self._replay_depth
        intake: dict[str, list[tuple[None, StreamTuple]]] = {}
        for tup in batch:
            delegate = delegate_of(tup.stream_id)
            if delegate is None or delegate not in proc_channels:
                continue
            if replay_depth:
                buf = self._recent.get(tup.stream_id)
                if buf is None:
                    buf = self._recent[tup.stream_id] = deque(
                        maxlen=replay_depth
                    )
                buf.append(tup)
            intake.setdefault(delegate, []).append((None, tup))
        for delegate, items in intake.items():
            for full in self._proc_batchers[delegate].add_many(items):
                await self.transport.send(proc_channels[delegate], full)

    async def _flush_procs(self) -> None:
        for proc, batcher in self._proc_batchers.items():
            batch = batcher.take()
            if batch is not None:
                await self.transport.send(self.proc_channels[proc], batch)


class LiveProcessor:
    """One LAN processor: delegate routing plus fragment execution.

    Inbox items are ``(fragment_id, tuple)`` pairs; ``fragment_id is
    None`` marks raw delegate intake that must fan out to the head
    fragment of every hosted query consuming the tuple's stream — the
    same two-step route the simulator's entity performs.
    """

    def __init__(
        self,
        entity_id: str,
        proc_id: str,
        inbox: LiveChannel,
        head_routes: dict[str, list[tuple[str, str]]],
        proc_channels: dict[str, LiveChannel],
        result_channel: LiveChannel,
        transport: LiveTransport,
        tracker: WorkTracker,
        metrics: LiveMetrics,
        clock: LiveClock,
        *,
        batch_size: int = 8,
        throttle=None,
    ) -> None:
        self.entity_id = entity_id
        self.proc_id = proc_id
        self.inbox = inbox
        # Execution tables, loaded (and on every online change reloaded
        # in place) by LiveDataflow.rewire; head_routes is one dict
        # shared by all of the entity's processors.
        self.fragments: dict[str, Fragment] = {}
        self.downstream: dict[str, Edge] = {}
        self.head_routes = head_routes
        self.proc_channels = proc_channels
        self.result_channel = result_channel
        self.transport = transport
        self.tracker = tracker
        self.metrics = metrics
        self.clock = clock
        self.control = TaskControl()
        # Optional per-tenant intake throttle (the control plane's
        # weighted-fair token buckets).  None — the default — keeps the
        # delegate-routing hot path allocation- and branch-free.
        self.throttle = throttle
        self._proc_batchers = {
            proc: Batcher(batch_size)
            for proc in proc_channels
            if proc != proc_id
        }
        self._result_batcher = Batcher(batch_size)

    async def run(self) -> None:
        """Consume the processor inbox until the runtime closes it (or
        chaos crashes this processor)."""
        while True:
            if await self.control.checkpoint():
                break
            try:
                batch = await self.inbox.get()
            except ChannelClosed:
                break
            await self._execute_batch(batch)
            await self._flush()
            self.tracker.done(len(batch))

    async def _execute_batch(
        self, items: list[tuple[str | None, StreamTuple]]
    ) -> None:
        """Execute one inbox batch without unbatching it.

        Consecutive items addressed to the same fragment (the common
        case — upstream batches per destination) run through the fused
        fragment pipeline as one batch; each fragment still consumes its
        tuples in exactly the arrival order.
        """
        start, n = 0, len(items)
        while start < n:
            fragment_id = items[start][0]
            end = start + 1
            while end < n and items[end][0] == fragment_id:
                end += 1
            run = [tup for __, tup in items[start:end]]
            if fragment_id is None:
                await self._intake_batch(run)
            else:
                await self._run_fragment_batch(fragment_id, run)
            start = end

    async def _intake_batch(self, run: list[StreamTuple]) -> None:
        """Delegate-route a batch of raw stream tuples to head fragments."""
        start, n = 0, len(run)
        while start < n:
            stream_id = run[start].stream_id
            end = start + 1
            while end < n and run[end].stream_id == stream_id:
                end += 1
            sub = run[start:end]
            for fragment_id, proc in self.head_routes.get(stream_id, []):
                admitted = (
                    sub
                    if self.throttle is None
                    else self.throttle.admit(
                        fragment_id, sub, self.clock.now
                    )
                )
                if not admitted:
                    continue
                if proc == self.proc_id:
                    await self._run_fragment_batch(fragment_id, admitted)
                else:
                    items = [(fragment_id, tup) for tup in admitted]
                    for full in self._proc_batchers[proc].add_many(items):
                        await self.transport.send(
                            self.proc_channels[proc], full
                        )
            start = end

    def _record_busy(self, fragment: Fragment, cost: float) -> None:
        """Account fragment CPU, splitting a shared prefix fragment's
        cost evenly across its member queries (its own ``query_id`` is
        the group id, not a query)."""
        members = getattr(fragment, "members", None)
        if members:
            share = cost / len(members)
            for qid in members:
                self.metrics.record_busy(self.entity_id, share, query_id=qid)
            return
        self.metrics.record_busy(
            self.entity_id, cost, query_id=fragment.query_id
        )

    async def _run_fragment_batch(
        self, fragment_id: str, batch: list[StreamTuple]
    ) -> None:
        """Run a batch through one fragment's fused pipeline and route
        the outputs downstream as a batch."""
        fragment = self.fragments.get(fragment_id)
        if fragment is None:
            return
        self._record_busy(fragment, fragment.cost_for_batch(batch))
        outputs = fragment.run_batch(batch, self.clock.now)
        if not outputs:
            return
        edge = self.downstream[fragment_id]
        kind = type(edge)
        if kind is ToTaps:
            await self._fan_to_taps_batch(edge.taps, outputs)
            return
        if kind is ToResult:
            query_id = edge.query_id
            items = [(query_id, out) for out in outputs]
            for full in self._result_batcher.add_many(items):
                await self.transport.send(self.result_channel, full)
            return
        if kind is ToPartitions:
            await self._route_partitions(edge.router, edge.routes, outputs)
            return
        proc_id, next_fragment_id = edge
        if proc_id == self.proc_id:
            await self._run_fragment_batch(next_fragment_id, outputs)
            return
        items = [(next_fragment_id, out) for out in outputs]
        for full in self._proc_batchers[proc_id].add_many(items):
            await self.transport.send(self.proc_channels[proc_id], full)

    async def _fan_to_taps_batch(
        self, taps: tuple, outputs: list[StreamTuple]
    ) -> None:
        """Fan a shared prefix's outputs to every member tap.

        Tuples are immutable, so the same output batch is handed to each
        tap; local taps run inline, remote ones ride the per-processor
        batchers (per-link order preserved).
        """
        for proc_id, tap_id in taps:
            if proc_id == self.proc_id:
                await self._run_fragment_batch(tap_id, outputs)
            else:
                items = [(tap_id, out) for out in outputs]
                for full in self._proc_batchers[proc_id].add_many(items):
                    await self.transport.send(self.proc_channels[proc_id], full)

    async def _route_partitions(
        self, router, routes: dict, outputs: list[StreamTuple]
    ) -> None:
        """Fan a pre-stage fragment's outputs across partition fragments.

        The router turns every output into sequenced partition events
        plus merge-bound schedule controls; each goes to the processor
        hosting the destination fragment.  Local destinations execute
        inline, remote ones ride the per-processor batchers — per-link
        order is preserved either way, and the merge protocol tolerates
        any cross-link interleaving.
        """
        for out in outputs:
            for dest, event in router.route(out):
                proc_id, fragment_id = routes[dest]
                if proc_id == self.proc_id:
                    await self._run_fragment_batch(fragment_id, [event])
                else:
                    full = self._proc_batchers[proc_id].add(
                        (fragment_id, event)
                    )
                    if full is not None:
                        await self.transport.send(
                            self.proc_channels[proc_id], full
                        )

    async def _flush(self) -> None:
        for proc, batcher in self._proc_batchers.items():
            batch = batcher.take()
            if batch is not None:
                await self.transport.send(self.proc_channels[proc], batch)
        batch = self._result_batcher.take()
        if batch is not None:
            await self.transport.send(self.result_channel, batch)


class ResultCollector:
    """Drains the shared result channel into the metrics."""

    def __init__(
        self,
        channel: LiveChannel,
        tracker: WorkTracker,
        metrics: LiveMetrics,
        clock: LiveClock,
    ) -> None:
        self.channel = channel
        self.tracker = tracker
        self.metrics = metrics
        self.clock = clock

    async def run(self) -> None:
        """Consume results until the runtime closes the channel."""
        while True:
            try:
                batch = await self.channel.get()
            except ChannelClosed:
                break
            for query_id, tup in batch:
                self.metrics.record_result(query_id, tup, self.clock.now)
            self.tracker.done(len(batch))
