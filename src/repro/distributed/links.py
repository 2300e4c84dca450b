"""Socket-side counterparts of the live runtime's bounded channels.

Three pieces make a cross-process link behave like an in-process
:class:`~repro.live.channels.LiveChannel`:

* :class:`PeerConnection` — one TCP connection to a peer process.  All
  writes funnel through a single writer task consuming a frame queue,
  so ``write``/``drain`` pairing is structural (no interleaved writes,
  no drain-under-lock) and any task may enqueue frames without
  awaiting the socket.
* :class:`CreditGate` — the sender half of credit-based flow control.
  A link starts with credits equal to the receiver inbox's capacity;
  sending one batch consumes one credit, and the receiver returns the
  credit only after the batch has been admitted into the real bounded
  inbox.  A sender out of credits blocks exactly like a producer on a
  full local channel — the in-process backpressure contract, stretched
  over a socket.
* :class:`RemoteOutbox` — the channel-shaped sender the dataflow uses
  for entities owned by another process.  It implements the
  ``try_put``/``put``/``close`` peer contract of :class:`LiveChannel`
  (including cancellation-safe ``put``, ``ChannelClosed`` after close,
  and the ``depth``/``high_water``/``blocked_puts`` accounting the run
  report reads), so :class:`~repro.live.transport.LiveTransport` and the
  shutdown path treat local and remote destinations identically.

On the receiving side, a per-connection :class:`Admission` task drains
decoded batches from the reader and admits them into local inboxes.
The reader itself never blocks on admission — otherwise a full inbox
could stall CREDIT processing and deadlock the mesh — and the admission
queue stays bounded by the total credit window of the links feeding it.
"""

from __future__ import annotations

import asyncio

from repro.distributed import codec
from repro.live.channels import ChannelClosed, LiveChannel
from repro.live.entity_task import LiveClock
from repro.live.transport import WorkTracker
from repro.streams.tuples import StreamTuple


class CreditGate:
    """Sender-side credit pool for one cross-process link."""

    def __init__(self, credits: int) -> None:
        if credits < 1:
            raise ValueError("credits must be >= 1")
        self.initial = credits
        self._credits = credits
        self._cond = asyncio.Condition()
        self.excess_credit_returns = 0

    @property
    def available(self) -> int:
        """Credits currently held by the sender."""
        return self._credits

    @property
    def outstanding(self) -> int:
        """Batches sent but not yet admitted by the receiver."""
        return self.initial - self._credits

    def would_block(self) -> bool:
        """Whether an acquire would have to wait right now."""
        return self._credits < 1

    def try_acquire(self, n: int = 1) -> bool:
        """Take ``n`` credits if the sender holds them; never waits."""
        if self._credits < n:
            return False
        self._credits -= n
        return True

    async def acquire(self, n: int = 1) -> None:
        """Take ``n`` credits, waiting until the receiver returns some."""
        async with self._cond:
            while self._credits < n:
                await self._cond.wait()
            self._credits -= n

    async def release(self, n: int = 1) -> None:
        """Return ``n`` credits (called when CREDIT frames arrive).

        The pool never grows past ``initial``: a duplicate or stray
        CREDIT frame must not widen the flow-control window beyond the
        receiver's inbox capacity.  Overflow is swallowed and counted
        in ``excess_credit_returns`` so the audit can flag the protocol
        violation instead of the window silently inflating.
        """
        async with self._cond:
            headroom = self.initial - self._credits
            if n > headroom:
                self.excess_credit_returns += n - headroom
                n = headroom
            self._credits += n
            self._cond.notify_all()


class PeerConnection:
    """One TCP connection with a single-writer frame queue."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        label: str,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.label = label
        self.peer_id: int | None = None
        self.frames_sent = 0
        self.frames_received = 0
        self._outq: asyncio.Queue[bytes | None] = asyncio.Queue()
        self._writer_task = asyncio.create_task(
            self._write_loop(), name=f"dist:writer/{label}"
        )
        self._closed = False

    # -- sending -------------------------------------------------------
    def send(self, frame: bytes) -> None:
        """Enqueue one encoded frame for the writer task."""
        if self._closed:
            return
        self._outq.put_nowait(frame)

    def send_json(self, frame_type: int, obj: object) -> None:
        """Encode ``obj`` as a JSON control frame and enqueue it."""
        self.send(codec.encode_json(frame_type, obj))

    @property
    def pending_frames(self) -> int:
        """Frames enqueued but not yet written to the socket."""
        return self._outq.qsize()

    async def _write_loop(self) -> None:
        writer = self.writer
        while True:
            frame = await self._outq.get()
            if frame is None:
                break
            writer.write(frame)
            await writer.drain()
            self.frames_sent += 1

    # -- receiving -----------------------------------------------------
    async def frames(self, *, max_frame: int = codec.MAX_FRAME):
        """Async-iterate ``(frame_type, payload)`` until EOF."""
        decoder = codec.FrameDecoder(max_frame=max_frame)
        reader = self.reader
        while True:
            chunk = await reader.read(1 << 16)
            if not chunk:
                return
            for frame_type, payload in decoder.feed(chunk):
                self.frames_received += 1
                yield frame_type, payload

    # -- teardown ------------------------------------------------------
    async def close(self) -> None:
        """Flush every queued frame, then close the socket."""
        if self._closed:
            return
        self._closed = True
        self._outq.put_nowait(None)
        await self._writer_task
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # peer already gone: nothing left to flush


class RemoteOutbox:
    """Channel-shaped sender towards an entity owned by another process.

    Mirrors the :class:`LiveChannel` peer contract the transport and
    the staged shutdown rely on; ``depth`` reports batches in flight on
    the link (sent, not yet credited back), so the run report's queue
    columns stay meaningful for remote entities.
    """

    tier = "wan"
    latency = 0.0

    def __init__(
        self,
        entity_id: str,
        conn: PeerConnection,
        gate: CreditGate,
        *,
        tracker: WorkTracker,
        counters: "LinkCounters",
    ) -> None:
        self.name = f"remote/{entity_id}"
        self.entity_id = entity_id
        self.conn = conn
        self.gate = gate
        self.tracker = tracker
        self.counters = counters
        self.capacity = gate.initial
        self.puts = 0
        self.gets = 0
        self.high_water = 0
        self.blocked_puts = 0
        self._closed = False

    @property
    def depth(self) -> int:
        """Batches sent on the link and not yet admitted by the peer."""
        return self.gate.outstanding

    @property
    def closed(self) -> bool:
        return self._closed

    def try_put(self, batch: list[StreamTuple]) -> bool:
        """Send one batch if a credit is in hand; never waits.

        The synchronous half of the :class:`LiveChannel` contract:
        ``False`` when the link is out of credits, :class:`ChannelClosed`
        once closed.
        """
        if self._closed:
            raise ChannelClosed(self.name)
        if not self.gate.try_acquire(1):
            return False
        self._ship(batch)
        return True

    async def put(self, batch: list[StreamTuple]) -> None:
        """Frame and send one batch, consuming one flow-control credit.

        Cancellation-safe like the local channel: a ``put`` cancelled
        while waiting for credits sends nothing and leaks nothing (the
        credit is taken and the frame enqueued with no await between).
        """
        if self._closed:
            raise ChannelClosed(self.name)
        if self.gate.would_block():
            self.blocked_puts += 1
        await self.gate.acquire(1)
        if self._closed:
            # Closed while waiting for credits: refuse the send.  The
            # taken credit is not returned — the link is down and its
            # credit pool is dead with it.
            raise ChannelClosed(self.name)
        self._ship(batch)

    def _ship(self, batch: list[StreamTuple]) -> None:
        """Frame and enqueue one batch whose credit is already taken."""
        self.conn.send(
            codec.encode_frame(
                codec.BATCH,
                codec.encode_batch(
                    [(self.entity_id, tup) for tup in batch]
                ),
            )
        )
        self.puts += 1
        depth = self.gate.outstanding
        if depth > self.high_water:
            self.high_water = depth
        # The batch has left this process's dataflow: settle it with the
        # local tracker (the receiver re-registers it on admission) and
        # count it towards the federation's sent/received invariant.
        self.counters.sent += len(batch)
        self.tracker.done(len(batch))

    async def close(self) -> None:
        """Stop accepting batches; the socket itself outlives the flow."""
        self._closed = True

    async def fail(self) -> list:
        """Close the outbox; remote links hold no undelivered batches."""
        self._closed = True
        return []


class LinkCounters:
    """One worker's cross-process tuple totals (termination detection)."""

    def __init__(self) -> None:
        self.sent = 0
        self.received = 0


class Admission:
    """Per-connection admission of received batches into local inboxes.

    The connection's reader enqueues decoded batches here and moves on;
    this task performs the potentially blocking ``inbox.put``, advances
    the local virtual clock past the batch's newest tuple (so delivery
    latency stays non-negative on every worker), and only then returns
    the flow-control credit to the sender.
    """

    def __init__(
        self,
        conn: PeerConnection,
        inboxes: dict[str, LiveChannel],
        clock: LiveClock,
        tracker: WorkTracker,
        counters: LinkCounters,
    ) -> None:
        self.conn = conn
        self.inboxes = inboxes
        self.clock = clock
        self.tracker = tracker
        self.counters = counters
        self._queue: asyncio.Queue[
            tuple[str, list[StreamTuple]] | None
        ] = asyncio.Queue()
        self.task = asyncio.create_task(
            self._run(), name=f"dist:admission/{conn.label}"
        )

    @property
    def pending(self) -> int:
        """Batches decoded but not yet admitted into an inbox."""
        return self._queue.qsize()

    def offer(self, entity_id: str, batch: list[StreamTuple]) -> None:
        """Reader side: hand over one decoded batch (never blocks)."""
        self._queue.put_nowait((entity_id, batch))

    async def _run(self) -> None:
        while True:
            item = await self._queue.get()
            if item is None:
                return
            entity_id, batch = item
            self.tracker.add(len(batch))
            newest = max(tup.created_at for tup in batch)
            await self.clock.pace(newest)
            await self.inboxes[entity_id].put(batch)
            self.counters.received += len(batch)
            self.conn.send(
                codec.encode_frame(
                    codec.CREDIT, codec.encode_credit(entity_id, 1)
                )
            )

    async def close(self) -> None:
        """Drain the queue and stop the admission task."""
        self._queue.put_nowait(None)
        await self.task
