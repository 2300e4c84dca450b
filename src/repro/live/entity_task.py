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
network sends).  The tasks decide no routing: a tree edge carries what
:meth:`DisseminationTree.route` says crosses it, a fragment's outputs
take the hops its out-edge routes them to (:mod:`repro.core.wiring`),
and each destination has one :class:`~repro.live.transport.Sender`.
"""

from __future__ import annotations

import asyncio
from collections import deque
from collections.abc import Iterable, Sequence
from operator import itemgetter
from typing import Any, NamedTuple

from repro.core.wiring import Edge, Hop
from repro.dissemination.tree import DisseminationTree
from repro.engine.plan import Fragment
from repro.interest.compiled import SelectFn, compile_selector
from repro.interest.predicates import StreamInterest
from repro.live.channels import ChannelClosed, LiveChannel
from repro.live.metrics import LiveMetrics
from repro.live.transport import LiveTransport, Sender, WorkTracker, flush_all
from repro.placement.delegation import DelegationScheme
from repro.streams.tuples import StreamTuple

# In scaled (wall-paced) runs, the longest a source feed that is behind
# schedule, and so never idles, holds a partial batch (virtual seconds).
BATCH_LINGER = 0.05

_TARGET = itemgetter(0)  # of a processor inbox item, ``(target, tuple)``


class _Relay:
    """Type of :data:`RELAY`; equal to nothing but itself."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "RELAY"


# Target of a delegate's relay to a fellow processor: "feed your own
# heads of this stream, pass it no further".  Fragment ids are strings,
# so no id can equal it; processor channels never cross a socket, so it
# is never encoded.
RELAY = _Relay()


class _Heads(NamedTuple):
    """One stream's intake on one processor (:meth:`LiveProcessor.load_heads`)."""

    select: SelectFn | None
    steps: tuple[tuple[str, Fragment | None, int | None], ...]


def _runs(keys: list, items: list) -> Sequence[tuple[Any, list]]:
    """Cut ``items`` into maximal runs of consecutive items with equal
    key (``keys[i]`` is ``items[i]``'s), as ``(key, run)`` pairs.  Senders
    batch per destination and feeds per stream, so a batch is nearly
    always one run: that case never loops in Python."""
    first = keys[0]
    if keys.count(first) == len(keys):
        return ((first, items),)
    runs = []
    start, n = 0, len(keys)
    while start < n:
        first = keys[start]
        end = start + 1
        while end < n and keys[end] == first:
            end += 1
        runs.append((first, items[start:end]))
        start = end
    return runs


async def next_input(inbox: LiveChannel, clock: LiveClock) -> list:
    """A consumer's next inbox batch.  In scaled runs it is joined, in
    order, by every batch already due behind it: a consumer that fell
    behind takes its backlog as one run, so the partial batches that idle
    feeds send (a tuple each at low rates) coalesce again under load.
    Unscaled runs take one batch at a time, so what they send, and the
    interleaving their window joins depend on, stays fixed."""
    batch = await inbox.get()
    if clock.time_scale > 0.0:
        more = inbox.take_due()
        if more is not None:
            batch = list(batch)
            while more is not None:
                batch.extend(more)
                more = inbox.take_due()
    return batch


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

    def due_in(self, t: float) -> float:
        """Loop seconds until virtual time ``t`` is due; ``<= 0`` once it
        is.  Always ``0.0`` when unscaled, without reading the loop clock.

        Deadlines are absolute — ``epoch + t * time_scale`` on the
        loop's clock, the epoch anchored by the first scaled call — so a
        late wake-up shortens the next wait instead of pushing every
        later emission back.
        """
        if t <= self._virtual or self.time_scale == 0.0:
            return 0.0
        now = asyncio.get_running_loop().time()
        if self._epoch is None:
            self._epoch = now - self._virtual * self.time_scale
        return self._epoch + t * self.time_scale - now

    async def pace(self, t: float) -> None:
        """Sleep until virtual time ``t`` is due (no-op when unscaled);
        a tuple that is already due is not slept for at all."""
        if t > self._virtual:
            delay = self.due_in(t)
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
    (``node = entity_id``): what crosses each child edge is the tree's
    decision (:meth:`DisseminationTree.route` — early filtering, then
    transforming); this class batches it and sends it.
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
    ) -> None:
        self.node = node
        self.trees = trees
        self.channels = channels
        self.transport = transport
        self.metrics = metrics
        self.batch_size = batch_size
        self.early_filtering = early_filtering
        self.transform = transform
        # One per child actually sent to (trees change under a run).
        self._senders: dict[str, Sender] = {}

    def _sender(self, child: str) -> Sender:
        sender = self._senders.get(child)
        if sender is None:
            sender = self._senders[child] = Sender(
                self.channels[child], self.transport, self.batch_size
            )
        return sender

    async def forward(self, tup: StreamTuple) -> None:
        """Relay one tuple towards every interested child subtree.

        Deliberately a per-tuple copy of :meth:`DisseminationTree.route`'s
        edge rule: feeds call this per tuple, and a batch of one through
        ``route`` cost +1.5 us per source tuple (docs/performance.md §8).
        """
        tree = self.trees.get(tup.stream_id)
        if tree is None:
            return
        for child in tree.children_of(self.node):
            if self.early_filtering and not tree.needs_tuple(
                child, tup.values
            ):
                self.metrics.filtered_edges += 1
                continue
            payload = tree.transformed(child, tup) if self.transform else tup
            self.metrics.forwarded_edges += 1
            sender = self._sender(child)
            full = sender.add(payload)
            if full is not None:
                await sender.send(full)

    async def forward_batch(self, batch: list[StreamTuple]) -> None:
        """Relay a whole batch without unbatching it.

        Consecutive same-stream runs are filtered per child edge with
        the tree's compiled aggregate kernel in one pass; the per-child
        tuple order (and therefore everything downstream sees) is
        identical to calling :meth:`forward` per tuple.
        """
        streams = [tup.stream_id for tup in batch]
        for stream_id, run in _runs(streams, batch):
            await self._forward_run(stream_id, run)

    async def _forward_run(
        self, stream_id: str, run: list[StreamTuple]
    ) -> None:
        """Forward one same-stream run across this node's tree edges."""
        tree = self.trees.get(stream_id)
        if tree is None:
            return
        metrics = self.metrics
        for child, kept in tree.route(
            self.node, run, self.early_filtering, self.transform
        ):
            metrics.filtered_edges += len(run) - len(kept)
            if kept:
                metrics.forwarded_edges += len(kept)
                sender = self._sender(child)
                for full in sender.add_many(kept):
                    await sender.send(full)

    async def flush(self) -> None:
        """Send every partial batch."""
        await flush_all(self._senders.values())


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
        gate: FeedGate | None = None,
    ) -> None:
        self.stream_id = stream_id
        self.trace = trace
        self.forwarder = forwarder
        self.clock = clock
        self.metrics = metrics
        self.gate = gate
        # True once the trace is fully replayed; the migration protocol
        # uses it to know how many feeds can still reach the gate.
        self.finished = False

    async def run(self) -> None:
        """Pace through the trace; flush when idle; finish.

        In scaled runs a partial batch leaves when the feed would
        otherwise wait: before sleeping towards its next tuple, the feed
        flushes what it has forwarded since the last flush.  A feed
        behind schedule never sleeps, so its batches fill, but none
        holds a tuple for :data:`BATCH_LINGER` virtual seconds or more.
        Unscaled runs flush only at the gate and at the end.
        """
        clock, forwarder, gate = self.clock, self.forwarder, self.gate
        scaled = clock.time_scale > 0.0
        # Virtual time of the first tuple forwarded since the last flush.
        pending_since: float | None = None
        for t, tup in self.trace:
            if (
                scaled
                and pending_since is not None
                and (t - pending_since >= BATCH_LINGER or clock.due_in(t) > 0.0)
            ):
                await forwarder.flush()
                pending_since = None
            await clock.pace(t)
            if gate is not None and not gate.is_open:
                # migration in progress: flush so the drain observes
                # every tuple emitted so far, then wait at the gate
                await forwarder.flush()
                pending_since = None
                await gate.wait_open()
            self.metrics.record_ingest()
            await forwarder.forward(tup)
            if pending_since is None:
                pending_since = t
        await forwarder.flush()
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
    ) -> None:
        self.entity_id = entity_id
        self.inbox = inbox
        self.forwarder = forwarder
        self.delegation = delegation
        self.tracker = tracker
        self.metrics = metrics
        self.clock = clock
        self.control = TaskControl()
        self._senders = {
            proc: Sender(channel, transport, batch_size)
            for proc, channel in proc_channels.items()
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
                batch = await next_input(self.inbox, self.clock)
            except ChannelClosed:
                break
            await self._handle_batch(batch)
            await self.forwarder.flush()
            await flush_all(self._senders.values())
            self.tracker.done(len(batch))

    async def _handle_batch(self, batch: list[StreamTuple]) -> None:
        """Process one inbox batch without unbatching it.

        Deliveries are recorded in order, the whole batch is relayed to
        child entities first (the paper's cooperative duty) via
        :meth:`TreeForwarder.forward_batch`, and delegate intake is
        appended to the per-processor senders in arrival order.
        """
        now = self.clock.now
        record = self.metrics.record_delivery
        for tup in batch:
            record(self.entity_id, tup, now)
        await self.forwarder.forward_batch(batch)
        delegate_of = self.delegation.delegate_of
        senders = self._senders
        replay_depth = self._replay_depth
        intake: dict[str, list[tuple[None, StreamTuple]]] = {}
        for tup in batch:
            delegate = delegate_of(tup.stream_id)
            if delegate is None or delegate not in senders:
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
            sender = senders[delegate]
            for full in sender.add_many(items):
                await sender.send(full)


class LiveProcessor:
    """One LAN processor: delegate routing plus fragment execution.

    Inbox items are ``(target, tuple)`` pairs of three kinds:

    * ``None`` — raw delegate intake from the gateway.  This processor
      is the stream's delegate (§4: "receives, routes internally, and
      forwards"): it feeds the head fragments it hosts and relays the
      run *once* to every other processor hosting a head of the stream;
    * :data:`RELAY` — a delegate's relay: feed the heads hosted here
      and relay no further, whatever ``delegation`` says by now, so a
      fail-over with relays in flight cannot duplicate;
    * a fragment id — a chain, partition or tap hop for that fragment.

    The simulator's entity sends one LAN message per (tuple, head)
    instead; that is its cost model, the results are the same.
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
        # Per stream, this processor's intake: see load_heads.
        self.heads: dict[str, _Heads] = {}
        self.tracker = tracker
        self.metrics = metrics
        self.clock = clock
        self.control = TaskControl()
        # Optional per-tenant intake throttle (the control plane's
        # weighted-fair token buckets).  None — the default — keeps the
        # delegate-routing hot path allocation- and branch-free.
        self.throttle = throttle
        # One per destination: the entity's other processors and, under
        # ``None`` (where result hops go), the result channel.
        self._senders: dict[str | None, Sender] = {
            proc: Sender(channel, transport, batch_size)
            for proc, channel in proc_channels.items()
            if proc != proc_id
        }
        self._senders[None] = Sender(result_channel, transport, batch_size)

    async def run(self) -> None:
        """Consume the processor inbox until the runtime closes it (or
        chaos crashes this processor)."""
        while True:
            if await self.control.checkpoint():
                break
            try:
                batch = await next_input(self.inbox, self.clock)
            except ChannelClosed:
                break
            await self._execute_batch(batch)
            await flush_all(self._senders.values())
            self.tracker.done(len(batch))

    async def _execute_batch(
        self, items: list[tuple[str | _Relay | None, StreamTuple]]
    ) -> None:
        """Execute one inbox batch without unbatching it.

        Consecutive items addressed to the same fragment (the common
        case — upstream batches per destination) run through the fused
        fragment pipeline as one batch; each fragment still consumes its
        tuples in exactly the arrival order.
        """
        targets = list(map(_TARGET, items))
        for target, run in _runs(targets, items):
            tuples = [tup for __, tup in run]
            if target is None or target is RELAY:
                await self._intake_batch(tuples, relay=target is None)
            else:
                await self._deliver([(self.proc_id, target, tuples)])

    def load_heads(self) -> None:
        """Rebuild :attr:`heads` from ``head_routes`` and ``fragments``
        (called by the loader of those tables, never stale).

        Per stream, the steps in hosting order: a head hosted here, as
        ``(fragment_id, fragment, slot)``, or a processor to relay to at
        its first head, as ``(proc, None, None)``; plus one selector
        evaluating every head's leading selection in one pass, ``slot``
        indexing its result (``None``: the head selects everything and
        runs whole).
        """
        proc_id, fragments = self.proc_id, self.fragments
        heads: dict[str, _Heads] = {}
        for stream_id, routes in self.head_routes.items():
            interests: list[StreamInterest] = []
            steps: list[tuple[str, Fragment | None, int | None]] = []
            relayed = set()
            for head, proc in routes:
                if proc != proc_id:
                    if proc not in relayed:
                        relayed.add(proc)
                        steps.append((proc, None, None))
                    continue
                fragment = fragments.get(head)
                if fragment is None:
                    continue
                interest = fragment.leading_selection(stream_id)
                slot = None
                if interest is not None:
                    slot = len(interests)
                    interests.append(interest)
                steps.append((head, fragment, slot))
            heads[stream_id] = _Heads(
                compile_selector(interests) if interests else None,
                tuple(steps),
            )
        self.heads.clear()
        self.heads.update(heads)

    async def _intake_batch(
        self, run: list[StreamTuple], *, relay: bool
    ) -> None:
        """Route a batch of raw stream tuples to head fragments: as the
        delegate (``relay``), or as the receiver of a delegate's relay.

        Per same-stream run, one selector pass keeps each head's tuples;
        then, in hosting order, each head hosted here runs the rest of
        its fragment on them (its outputs delivered before the next
        head) and, when ``relay``, each other processor hosting a head
        is relayed the run once, at its first head.  Under quotas a head
        is admitted when its turn comes, against the clock as it stands
        then; a head cut to a prefix runs whole on the prefix.
        """
        throttle = self.throttle
        clock = self.clock
        streams = [tup.stream_id for tup in run]
        for stream_id, sub in _runs(streams, run):
            heads = self.heads.get(stream_id)
            if heads is None:
                continue
            kept = heads.select(sub) if heads.select is not None else ()
            for target, fragment, slot in heads.steps:
                if fragment is None:
                    if relay:
                        sender = self._senders[target]
                        for full in sender.add_many(
                            [(RELAY, tup) for tup in sub]
                        ):
                            await sender.send(full)
                    continue
                admitted = (
                    sub
                    if throttle is None
                    else throttle.admit(target, sub, clock.now)
                )
                if not admitted:
                    continue
                self._record_busy(fragment, fragment.cost_for_batch(admitted))
                if slot is None or admitted is not sub:
                    outputs = fragment.run_batch(admitted, clock.now)
                else:
                    outputs = fragment.run_selected(sub, kept[slot], clock.now)
                if outputs:
                    await self._deliver(self.downstream[target].route(outputs))

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

    async def _deliver(
        self,
        hops: Iterable[Hop],
    ) -> None:
        """Carry each ``(proc, target, tuples)`` hop in turn.

        Bound for another processor (or, ``proc`` ``None``, the results
        of query ``target``), the tuples ride that destination's sender.
        A fragment of this processor runs inline, and the hops its
        out-edge routes the outputs to are delivered before the next.
        """
        proc_id = self.proc_id
        for proc, target, tuples in hops:
            if proc != proc_id:
                sender = self._senders[proc]
                for full in sender.add_many([(target, tup) for tup in tuples]):
                    await sender.send(full)
                continue
            fragment = self.fragments.get(target)
            if fragment is None:
                continue
            self._record_busy(fragment, fragment.cost_for_batch(tuples))
            outputs = fragment.run_batch(tuples, self.clock.now)
            if outputs:
                await self._deliver(self.downstream[target].route(outputs))


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
