"""Inter-task sends with timeout, retry/backoff, and drop accounting.

Real inter-entity links fail and stall; the live runtime therefore never
performs a bare ``channel.put``.  :class:`LiveTransport.send` first
tries the channel synchronously (``try_put``): with room — the common
case — the batch is enqueued on the spot and the sender yields to the
loop exactly once; no task, timer or lock is involved.  Only a *full*
channel is waited on, under ``asyncio.timeout``; a timed-out (or
chaos-failed) attempt backs off exponentially — with seeded jitter so
runs are reproducible — and retries up to a budget.  A send that
exhausts its budget *drops the batch and returns*: drops surface as
metrics on the run report, never as exceptions in the dataflow.  Because
a put blocked on a full channel eventually times out, the retry path
doubles as deadlock insurance for cyclic processor topologies under
extreme backpressure.

The yield is load-bearing: at ``time_scale=0`` nothing else interleaves
feeds, gateways and processors, and until window joins expire by event
time (ROADMAP item 1) their output depends on that interleaving.
"""

from __future__ import annotations

import asyncio
import random
from collections.abc import Awaitable, Iterable

from repro.live.channels import Batcher, ChannelClosed, LiveChannel
from repro.live.metrics import TransportStats


class TransportChaos:
    """Interface the chaos layer implements to disturb sends.

    ``fail`` is consulted per attempt (a partitioned link fails every
    attempt until the partition heals; tests subclass it to exercise the
    retry/backoff/drop path); ``delay`` returns extra wire
    latency in seconds, applied before the put attempt (a latency
    spike).  The live transport works unchanged when no policy is
    installed.
    """

    def fail(self, channel_name: str, attempt: int) -> bool:
        """Whether this send attempt is lost to an active fault."""
        return False

    def delay(self, channel_name: str) -> float:
        """Extra seconds of wire latency currently afflicting the link."""
        return 0.0


class WorkTracker:
    """Counts in-flight items so the runtime can detect quiescence.

    Every successful channel send ``add``s its tuples *before* the
    consumer could possibly ``done`` them, so the count reaching zero
    after all sources finish means the whole dataflow has drained.
    """

    def __init__(self) -> None:
        self._count = 0
        self._zero = asyncio.Event()
        self._zero.set()

    @property
    def in_flight(self) -> int:
        """Items currently enqueued or being processed."""
        return self._count

    def add(self, n: int = 1) -> None:
        """Account ``n`` items entering the dataflow."""
        self._count += n
        if self._count > 0:
            self._zero.clear()

    def done(self, n: int = 1) -> None:
        """Account ``n`` items fully processed (downstream sends done)."""
        self._count -= n
        if self._count <= 0:
            self._zero.set()

    async def wait_quiescent(self) -> None:
        """Block until no items are in flight."""
        await self._zero.wait()


class LiveTransport:
    """Shared send policy for every edge of one live run.

    Args:
        stats: Mutable counters surfaced on the run report.
        tracker: Quiescence tracker (items added on send, removed by
            consumers — or by the transport itself when it drops).
        rng: Seeded generator for backoff jitter (reproducible runs).
        send_timeout: Wall seconds one put attempt may block.
        max_retries: Re-attempts after the first failed put.
        backoff_base / backoff_factor / backoff_max: Exponential
            backoff schedule in wall seconds.
    """

    def __init__(
        self,
        *,
        stats: TransportStats,
        tracker: WorkTracker,
        rng: random.Random | None = None,
        send_timeout: float = 0.25,
        max_retries: int = 3,
        backoff_base: float = 0.005,
        backoff_factor: float = 2.0,
        backoff_max: float = 0.25,
    ) -> None:
        self.stats = stats
        self.tracker = tracker
        self.rng = rng or random.Random(0)
        self.send_timeout = send_timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_max = backoff_max
        # Installed by the chaos harness; None in normal runs.
        self.chaos: TransportChaos | None = None

    # ------------------------------------------------------------------
    def backoff_delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (jittered, capped)."""
        base = self.backoff_base * (self.backoff_factor ** attempt)
        jitter = 1.0 + self.rng.uniform(0.0, 0.5)
        return min(self.backoff_max, base * jitter)

    async def send(self, channel: LiveChannel, batch: list) -> bool:
        """Deliver one batch, retrying on timeout; drop when exhausted.

        Returns ``True`` on delivery, ``False`` on drop.  The batch's
        tuples are registered with the work tracker up front; a drop
        (or a closed receiver) immediately un-registers them so the
        runtime's quiescence detection stays exact.  Cancelled while
        blocked on a full channel, a send enqueues nothing; cancelled at
        its yield, the batch is already delivered and counted.
        """
        count = len(batch)
        self.tracker.add(count)
        for attempt in range(self.max_retries + 1):
            failed = self.chaos is not None and self.chaos.fail(
                channel.name, attempt
            )
            if not failed:
                if self.chaos is not None:
                    extra = self.chaos.delay(channel.name)
                    if extra > 0.0:
                        await asyncio.sleep(extra)
                try:
                    blocked = not channel.try_put(batch)
                    if blocked:
                        async with asyncio.timeout(self.send_timeout):
                            await channel.put(batch)
                    self.stats.batches_sent += 1
                    self.stats.tuples_sent += count
                    if not blocked:
                        # The send's one scheduling point (module docs).
                        await asyncio.sleep(0)
                    return True
                except TimeoutError:
                    pass
                except ChannelClosed:
                    break  # receiver is gone: no point retrying
            if attempt < self.max_retries:
                self.stats.retries += 1
                await asyncio.sleep(self.backoff_delay(attempt))
        self.stats.dropped_batches += 1
        self.stats.dropped_tuples += count
        self.tracker.done(count)
        return False


class Sender(Batcher):
    """One destination's batcher, bound to its channel and transport;
    tasks send through these, never through the transport directly.
    Filling stays synchronous (``add`` / ``add_many`` hand back what
    filled), so a hand-off that fills nothing costs no coroutine."""

    def __init__(
        self, channel: LiveChannel, transport: LiveTransport, batch_size: int
    ) -> None:
        super().__init__(batch_size)
        self.channel = channel
        self.transport = transport

    def send(self, batch: list) -> Awaitable[bool]:
        """Send one batch now (the transport's own coroutine)."""
        return self.transport.send(self.channel, batch)


async def flush_all(senders: Iterable[Sender]) -> None:
    """Send every partial batch, sender by sender."""
    for sender in senders:
        batch = sender.take()
        if batch is not None:
            await sender.send(batch)
