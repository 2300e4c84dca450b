"""Tests for the retry/backoff/drop send policy and quiescence tracking.

All async tests run on the chaos harness's
:class:`~repro.live.chaos.VirtualClockLoop`: every timer (send
timeouts, backoffs, waits) fires in deterministic virtual order with no
wall-clock sleeping, so nothing here depends on real-time scheduling.
"""

from __future__ import annotations

import asyncio
import random

from repro.live.channels import LiveChannel
from repro.live.chaos import VirtualClockLoop
from repro.live.entity_task import LiveClock
from repro.live.metrics import TransportStats
from repro.live.transport import (
    LiveTransport,
    Sender,
    TransportChaos,
    WorkTracker,
    flush_all,
)


def run(coro):
    with asyncio.Runner(loop_factory=VirtualClockLoop) as runner:
        return runner.run(coro)


class FailSends(TransportChaos):
    """Fails the send attempts ``rule(channel_name, attempt)`` picks."""

    def __init__(self, rule):
        self.fail = rule


def make_transport(chaos=None, **overrides):
    defaults = dict(
        stats=TransportStats(),
        tracker=WorkTracker(),
        rng=random.Random(1),
        send_timeout=0.01,
        max_retries=2,
        backoff_base=0.001,
        backoff_max=0.01,
    )
    defaults.update(overrides)
    transport = LiveTransport(**defaults)
    transport.chaos = chaos
    return transport


def count_loop_work(monkeypatch) -> dict[str, int]:
    """Count the tasks and timers the running loop is asked for."""
    loop = asyncio.get_running_loop()
    calls = {"create_task": 0, "call_later": 0, "call_at": 0}

    def counting(name):
        original = getattr(loop, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(loop, name, counting(name))
    return calls


def test_send_delivers_and_counts():
    async def main():
        transport = make_transport()
        ch = LiveChannel("t", capacity=4)
        ok = await transport.send(ch, [1, 2, 3])
        return transport, ch, ok

    transport, ch, ok = run(main())
    assert ok
    assert ch.depth == 1
    assert transport.stats.batches_sent == 1
    assert transport.stats.tuples_sent == 3
    assert transport.stats.retries == 0
    assert transport.tracker.in_flight == 3  # consumer has not drained


def test_send_with_room_allocates_nothing_on_the_loop(monkeypatch):
    """The common case: no task, no timer — a put and one yield."""

    async def main():
        transport = make_transport()
        ch = LiveChannel("t", capacity=4)
        calls = count_loop_work(monkeypatch)
        for __ in range(3):
            assert await transport.send(ch, ["a"])
        return transport, ch, dict(calls)

    transport, ch, calls = run(main())
    assert calls == {"create_task": 0, "call_later": 0, "call_at": 0}
    assert ch.depth == 3 and ch.blocked_puts == 0
    assert transport.stats.batches_sent == 3


def test_send_with_room_suspends_the_sender_exactly_once():
    """A send is one scheduling point: a task already in the ready
    queue runs once — not zero times, not twice — before it returns."""

    async def main():
        transport = make_transport()
        ch = LiveChannel("t", capacity=4)
        order = []

        async def other():
            order.append("other-1")
            await asyncio.sleep(0)
            order.append("other-2")

        task = asyncio.create_task(other())
        await transport.send(ch, ["a"])
        order.append("send")
        await task
        return order

    assert run(main()) == ["other-1", "send", "other-2"]


def test_full_channel_times_out_without_a_task(monkeypatch):
    """The blocked path keeps its timeout, retries and drop accounting
    but waits in the sender itself: one timer per attempt, no task."""

    async def main():
        transport = make_transport()
        ch = LiveChannel("t", capacity=1)
        await ch.put(["occupies"])
        calls = count_loop_work(monkeypatch)
        ok = await transport.send(ch, ["a", "b"])
        return transport, ch, ok, dict(calls)

    transport, ch, ok, calls = run(main())
    assert not ok
    assert calls["create_task"] == 0
    # three timeouts (call_at) and two backoff sleeps (call_later,
    # which the base loop itself turns into call_at)
    assert calls["call_later"] == 2 and calls["call_at"] == 3 + 2
    assert ch.depth == 1 and ch.blocked_puts == 3
    assert len(ch._putters) == 0  # timed-out attempts leave no waiter behind
    assert transport.stats.retries == 2
    assert transport.stats.dropped_batches == 1
    assert transport.stats.dropped_tuples == 2
    assert transport.tracker.in_flight == 0


def test_send_cancelled_at_its_yield_has_delivered_and_counted():
    """The batch is enqueued before the yield, so a sender cancelled
    there (a crash, shutdown) must already be in the stats: what the
    channel took and what the transport says it sent never disagree."""

    async def main():
        transport = make_transport()
        ch = LiveChannel("t", capacity=4)
        sender = asyncio.create_task(transport.send(ch, ["a", "b"]))
        await asyncio.sleep(0)  # sender runs up to its yield
        assert ch.depth == 1 and not sender.done()
        sender.cancel()
        await asyncio.gather(sender, return_exceptions=True)
        return transport, ch, sender

    transport, ch, sender = run(main())
    assert sender.cancelled()
    assert ch.puts == transport.stats.batches_sent == 1
    assert transport.stats.tuples_sent == transport.tracker.in_flight == 2
    assert transport.stats.dropped_batches == 0


def test_full_channel_retries_then_drops():
    """A send that can never be accepted exhausts its retry budget and
    drops — surfaced as metrics, never an exception."""

    async def main():
        transport = make_transport()
        ch = LiveChannel("t", capacity=1)
        await ch.put(["occupies"])  # nobody will ever drain this
        ok = await transport.send(ch, ["a", "b"])
        return transport, ok

    transport, ok = run(main())
    assert not ok
    assert transport.stats.retries == 2  # max_retries
    assert transport.stats.dropped_batches == 1
    assert transport.stats.dropped_tuples == 2
    assert transport.tracker.in_flight == 0  # drop un-registers the work


def test_retry_succeeds_once_consumer_drains():
    async def main():
        transport = make_transport(send_timeout=0.005, max_retries=5)
        ch = LiveChannel("t", capacity=1)
        await ch.put(["occupies"])

        async def late_consumer():
            # event-driven: drain only once the sender has actually
            # timed out and retried (no real-time coordination)
            while transport.stats.retries == 0:
                await asyncio.sleep(0.001)
            await ch.get()

        consumer = asyncio.create_task(late_consumer())
        ok = await transport.send(ch, ["payload"])
        await consumer
        return transport, ok

    transport, ok = run(main())
    assert ok
    assert transport.stats.retries > 0
    assert transport.stats.dropped_batches == 0


def test_fault_injector_forces_retries():
    """Injected send failures are retried with backoff and recover."""
    attempts = []

    def fail_first_two(channel_name, attempt):
        attempts.append((channel_name, attempt))
        return attempt < 2

    async def main():
        transport = make_transport(FailSends(fail_first_two), max_retries=4)
        ch = LiveChannel("wan/x", capacity=4)
        return await transport.send(ch, ["t"])

    assert run(main())
    assert [a for __, a in attempts] == [0, 1, 2]


def test_fault_injector_permanent_failure_drops():
    async def main():
        transport = make_transport(
            FailSends(lambda name, attempt: True), max_retries=3
        )
        ch = LiveChannel("t", capacity=4)
        ok = await transport.send(ch, ["a"])
        return transport, ch, ok

    transport, ch, ok = run(main())
    assert not ok
    assert ch.depth == 0
    assert transport.stats.retries == 3
    assert transport.stats.dropped_tuples == 1


def test_send_to_closed_channel_drops_without_retry_storm():
    async def main():
        transport = make_transport(max_retries=5)
        ch = LiveChannel("t", capacity=4)
        await ch.close()
        ok = await transport.send(ch, ["a", "b"])
        return transport, ok

    transport, ok = run(main())
    assert not ok
    assert transport.stats.dropped_tuples == 2
    assert transport.stats.retries == 0  # closed receiver: no point


def test_backoff_schedule_is_capped_and_grows():
    transport = make_transport(backoff_base=0.01, backoff_max=0.05)
    delays = [transport.backoff_delay(a) for a in range(6)]
    assert all(d <= 0.05 for d in delays)
    assert delays[1] > delays[0]  # grows before the cap bites


# ----------------------------------------------------------------------
# Sender: a destination's batcher, channel and transport in one
# ----------------------------------------------------------------------
async def fill(sender, items):
    """What every task does with ``add_many``: send what filled."""
    for full in sender.add_many(items):
        await sender.send(full)


def test_sender_below_its_bound_sends_only_on_flush_and_only_once():
    async def main():
        transport = make_transport()
        ch = LiveChannel("t", capacity=8)
        sender = Sender(ch, transport, batch_size=4)
        await fill(sender, ["a", "b", "c"])
        assert ch.depth == 0 and transport.stats.batches_sent == 0
        assert transport.tracker.in_flight == 0  # nothing sent, nothing owed
        await flush_all([sender])
        assert ch.depth == 1 and sender.pending == 0
        sent, in_flight = transport.stats.batches_sent, transport.tracker.in_flight
        await flush_all([sender])  # nothing pending: no send, tracker untouched
        assert (transport.stats.batches_sent, transport.tracker.in_flight) == (
            sent,
            in_flight,
        )
        return await ch.get(), sent, in_flight

    assert run(main()) == (["a", "b", "c"], 1, 3)


def test_senders_keep_per_destination_order_across_add_fill_and_flush():
    async def main():
        transport = make_transport()
        channels = [LiveChannel(name, capacity=8) for name in ("x", "y")]
        senders = [Sender(ch, transport, batch_size=3) for ch in channels]
        for sender, tag in zip(senders, "xy"):
            full = sender.add(f"{tag}0")
            assert full is None
            await fill(sender, [f"{tag}{i}" for i in range(1, 6)])
            full = sender.add(f"{tag}6")
            assert full is None  # 0..2 went, 3..5 went, 6 pending
        await flush_all(senders)
        received = []
        for ch in channels:
            batches = [await ch.get() for __ in range(ch.depth)]
            received.append(batches)
        return received, transport

    received, transport = run(main())
    for tag, batches in zip("xy", received):
        assert batches == [
            [f"{tag}0", f"{tag}1", f"{tag}2"],
            [f"{tag}3", f"{tag}4", f"{tag}5"],
            [f"{tag}6"],
        ]
    assert transport.stats.batches_sent == 6
    assert transport.stats.tuples_sent == 14


def test_sender_whose_send_drops_is_left_empty_with_the_tracker_balanced():
    async def main():
        transport = make_transport(
            FailSends(lambda name, attempt: True), max_retries=1
        )
        ch = LiveChannel("t", capacity=8)
        sender = Sender(ch, transport, batch_size=2)
        await fill(sender, ["a", "b", "c"])  # the full batch drops
        await flush_all([sender])  # and so does the flushed rest
        return transport, ch, sender

    transport, ch, sender = run(main())
    assert sender.pending == 0 and ch.depth == 0
    assert transport.stats.dropped_batches == 2
    assert transport.stats.dropped_tuples == 3
    assert transport.tracker.in_flight == 0


def test_work_tracker_quiescence():
    async def main():
        tracker = WorkTracker()
        tracker.add(3)

        async def finish():
            tracker.done(2)
            tracker.done(1)

        # the waiter blocks until the finisher task runs — purely
        # event-driven, no timing involved
        task = asyncio.create_task(finish())
        await asyncio.wait_for(tracker.wait_quiescent(), timeout=1.0)
        await task
        return tracker.in_flight

    assert run(main()) == 0


# ----------------------------------------------------------------------
# Pacing against absolute deadlines
# ----------------------------------------------------------------------
OVERSLEEP = 0.004


def oversleeping(monkeypatch) -> None:
    """Make every timed ``asyncio.sleep`` wake ``OVERSLEEP`` late."""
    real_sleep = asyncio.sleep

    async def sleep(delay, result=None):
        return await real_sleep(delay + OVERSLEEP if delay > 0 else delay, result)

    monkeypatch.setattr(asyncio, "sleep", sleep)


def test_pace_does_not_accumulate_late_wakeups(monkeypatch):
    """Deadlines are absolute: the last of N emissions is at most one
    oversleep late, not N of them."""
    oversleeping(monkeypatch)
    step, count = 0.01, 50

    async def main():
        clock = LiveClock(time_scale=1.0)
        loop = asyncio.get_running_loop()
        start = loop.time()
        lateness = []
        for index in range(1, count + 1):
            await clock.pace(index * step)
            lateness.append(loop.time() - start - index * step)
        return lateness

    lateness = run(main())
    assert min(lateness) >= -1e-9  # never early
    assert max(lateness) <= OVERSLEEP + 1e-9
    assert lateness[-1] <= OVERSLEEP + 1e-9


def test_two_feeds_on_one_clock_keep_their_relative_order(monkeypatch):
    oversleeping(monkeypatch)
    step, count = 0.01, 40

    async def main():
        clock = LiveClock(time_scale=1.0)
        loop = asyncio.get_running_loop()
        start = loop.time()
        emitted = []

        async def feed(offset):
            for index in range(count):
                t = (2 * index + offset) * step
                await clock.pace(t)
                emitted.append((t, loop.time() - start))

        await asyncio.gather(feed(1), feed(2))
        return emitted

    emitted = run(main())
    assert [t for t, __ in emitted] == sorted(t for t, __ in emitted)
    assert all(-1e-9 <= at - t <= OVERSLEEP + 1e-9 for t, at in emitted)


def test_unscaled_pace_never_reads_the_loop_clock(monkeypatch):
    async def main():
        clock = LiveClock(time_scale=0.0)
        loop = asyncio.get_running_loop()

        def no_time():
            raise AssertionError("time_scale=0 must not read loop.time()")

        monkeypatch.setattr(loop, "time", no_time)
        for index in range(1, 4):
            await clock.pace(index * 0.5)
        monkeypatch.undo()
        return clock.now

    assert run(main()) == 1.5
