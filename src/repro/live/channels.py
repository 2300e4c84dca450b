"""Bounded in-process channels for the live asyncio runtime.

A :class:`LiveChannel` is the live analogue of a network link: a bounded
FIFO between exactly one layer of producers and one consumer task.  The
bound is the backpressure mechanism — a full channel blocks ``put`` until
the consumer drains, so a slow entity slows its upstream senders instead
of growing an unbounded queue.  Channels carry *batches* (lists) of
items; :class:`Batcher` accumulates per-destination batches at the
sender, which amortises per-send overhead exactly like message batching
amortises per-packet overhead on a real wire.

Underneath it is a deque and two queues of waiter futures (blocked
producers, blocked consumers), after ``asyncio.Queue``: ``try_put`` with
room is an append — no lock, no loop callback unless the consumer sleeps.

Each channel is tagged with the network tier it models (``"wan"`` or
``"lan"``) and an optional delivery latency in wall-clock seconds; the
runtime derives that latency from the simulated tier latencies and its
time-scale factor, so an unscaled ("as fast as possible") run pays no
sleeps at all.  Like ``Network.send`` in the simulator, latency delays
each batch — due at put time plus latency, on the loop's clock — without
queueing it behind the one before: a link does not throttle.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any

from repro.simulation.network import LAN, WAN

__all__ = ["Batcher", "ChannelClosed", "LiveChannel", "LAN", "WAN"]


class ChannelClosed(Exception):
    """Raised by ``put``/``get`` once a channel has been closed."""


class LiveChannel:
    """A bounded FIFO channel with blocking-put backpressure.

    Args:
        name: Diagnostic name (e.g. ``"inbox/entity-3"``).
        capacity: Maximum queued batches; ``put`` blocks at the bound.
        tier: ``"wan"`` or ``"lan"`` — which network tier this models.
        latency: Wall-clock seconds each batch spends "on the wire":
            ``get`` returns a batch no earlier than its put plus this.
    """

    def __init__(
        self,
        name: str,
        *,
        capacity: int = 256,
        tier: str = WAN,
        latency: float = 0.0,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.tier = tier
        self.latency = latency
        self._items: deque[Any] = deque()
        # Loop time each queued batch is due, in step with _items; kept
        # only when latency > 0.
        self._due: deque[float] = deque()
        self._putters: deque[asyncio.Future[None]] = deque()
        self._getters: deque[asyncio.Future[None]] = deque()
        self._closed = False
        # accounting (read by metrics / tests)
        self.puts = 0
        self.gets = 0
        self.high_water = 0
        self.blocked_puts = 0

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Batches currently queued."""
        return len(self._items)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @staticmethod
    def _wake_next(waiters: deque[asyncio.Future[None]]) -> None:
        """Wake the longest-blocked waiter that is still waiting."""
        while waiters:
            waiter = waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                return

    async def _wait_in(self, waiters: deque[asyncio.Future[None]]) -> None:
        """Park the caller in ``waiters`` until the other side (or a close)
        wakes it.  Cancelled *after* being woken — a send timeout racing a
        ``get`` — it passes the wake-up on, so a freed slot (a new batch)
        is never stranded; cancelled before, it leaves the queue."""
        waiter = asyncio.get_running_loop().create_future()
        waiters.append(waiter)
        try:
            await waiter
        except BaseException:
            waiter.cancel()  # no effect once woken
            try:
                waiters.remove(waiter)
            except ValueError:  # popped by _wake_next
                pass
            if not waiter.cancelled():
                self._wake_next(waiters)
            raise

    def try_put(self, item: Any) -> bool:
        """Enqueue one batch unless the channel is full (``False``) or
        closed (:class:`ChannelClosed`); never blocks or yields."""
        if self._closed:
            raise ChannelClosed(self.name)
        items = self._items
        if len(items) >= self.capacity:
            return False
        items.append(item)
        if self.latency:
            self._due.append(asyncio.get_running_loop().time() + self.latency)
        self.puts += 1
        if len(items) > self.high_water:
            self.high_water = len(items)
        self._wake_next(self._getters)
        return True

    async def put(self, item: Any) -> None:
        """Enqueue one batch, blocking while the channel is full.

        Raises :class:`ChannelClosed` if the channel is (or becomes)
        closed before the item is accepted.  Cancellation (e.g. by
        ``asyncio.timeout`` — how the transport implements its send
        timeout) is safe: a cancelled ``put`` never enqueues.
        """
        if not self._closed and len(self._items) >= self.capacity:
            self.blocked_puts += 1
        while not self.try_put(item):
            await self._wait_in(self._putters)

    def _head_wait(self) -> float:
        """Seconds until the head batch is due; ``<= 0`` once it is.
        The channel must not be empty."""
        due = self._due
        return due[0] - asyncio.get_running_loop().time() if due else 0.0

    def _pop(self) -> Any:
        """Dequeue the head batch, which is due."""
        if self._due:
            self._due.popleft()
        item = self._items.popleft()
        self.gets += 1
        self._wake_next(self._putters)
        return item

    def take_due(self) -> Any | None:
        """Dequeue the head batch if one is queued and due, else return
        ``None``; never blocks or yields."""
        if self._items and self._head_wait() <= 0.0:
            return self._pop()
        return None

    async def get(self) -> Any:
        """Dequeue the next batch, blocking while the channel is empty
        and sleeping until it is due while it is still on the wire.

        Raises :class:`ChannelClosed` once the channel is closed *and*
        drained — a close never discards queued batches.
        """
        while True:
            while not self._items:
                if self._closed:
                    raise ChannelClosed(self.name)
                await self._wait_in(self._getters)
            wait = self._head_wait()
            if wait <= 0.0:
                return self._pop()
            # The batch stays queued while on the wire: a fail() during
            # the wait still accounts it.
            await asyncio.sleep(wait)

    async def close(self) -> None:
        """Close the channel, waking every blocked producer/consumer."""
        self._closed = True
        for waiters in (self._putters, self._getters):
            while waiters:
                self._wake_next(waiters)

    async def fail(self) -> list[Any]:
        """Close the channel *and* discard its queued batches.

        Models the consumer's host crashing: unlike :meth:`close` (a
        graceful shutdown that lets queued batches drain), a failed
        channel loses everything still queued.  Returns the discarded
        batches so the caller can account the lost tuples — the chaos
        layer feeds them to the work tracker, keeping quiescence
        detection exact even mid-crash.
        """
        lost = list(self._items)
        self._items.clear()
        self._due.clear()
        await self.close()
        return lost


class Batcher:
    """Accumulates items into fixed-size batches for one destination."""

    def __init__(self, batch_size: int = 1) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self._pending: list[Any] = []
        self.batches_formed = 0

    @property
    def pending(self) -> int:
        """Items waiting for the current batch to fill or flush."""
        return len(self._pending)

    def add(self, item: Any) -> list[Any] | None:
        """Add one item; returns a full batch when the bound is reached."""
        self._pending.append(item)
        if len(self._pending) >= self.batch_size:
            return self.take()
        return None

    def add_many(self, items: list[Any]) -> list[list[Any]]:
        """Add many items at once; returns every full batch formed.

        The batch analogue of calling :meth:`add` per item: batches come
        out in the same ``batch_size``-sized chunks, items in order, a
        trailing partial chunk stays pending.
        """
        pending = self._pending
        pending.extend(items)
        size = self.batch_size
        if len(pending) < size:
            return []
        full = [
            pending[start : start + size]
            for start in range(0, len(pending) - size + 1, size)
        ]
        del pending[: len(full) * size]
        self.batches_formed += len(full)
        return full

    def take(self) -> list[Any] | None:
        """Flush the partial batch (``None`` when nothing is pending)."""
        if not self._pending:
            return None
        batch = self._pending
        self._pending = []
        self.batches_formed += 1
        return batch
