"""Tests for the live runtime's bounded channels and batching."""

from __future__ import annotations

import asyncio
from collections import deque

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.live.channels import Batcher, ChannelClosed, LiveChannel
from repro.live.chaos import VirtualClockLoop


def run(coro):
    return asyncio.run(coro)


def run_virtual(coro):
    with asyncio.Runner(loop_factory=VirtualClockLoop) as runner:
        return runner.run(coro)


# ----------------------------------------------------------------------
# LiveChannel basics
# ----------------------------------------------------------------------
def test_channel_fifo_order():
    async def main():
        ch = LiveChannel("t", capacity=8)
        for i in range(5):
            await ch.put([i])
        return [await ch.get() for __ in range(5)]

    assert run(main()) == [[0], [1], [2], [3], [4]]


def test_channel_rejects_bad_capacity():
    with pytest.raises(ValueError):
        LiveChannel("t", capacity=0)


def test_put_blocks_at_capacity_and_resumes():
    """Backpressure: a full channel blocks the producer until the
    consumer drains, and the queue never exceeds its bound."""

    async def main():
        ch = LiveChannel("t", capacity=2)
        received = []

        async def producer():
            for i in range(10):
                await ch.put(i)

        async def consumer():
            for __ in range(10):
                await asyncio.sleep(0.001)  # slow consumer
                received.append(await ch.get())

        await asyncio.gather(producer(), consumer())
        return ch, received

    ch, received = run(main())
    assert received == list(range(10))
    assert ch.high_water <= 2
    assert ch.blocked_puts > 0


def test_close_wakes_blocked_consumer():
    async def main():
        ch = LiveChannel("t", capacity=2)

        async def consumer():
            with pytest.raises(ChannelClosed):
                await ch.get()

        task = asyncio.create_task(consumer())
        await asyncio.sleep(0.001)
        await ch.close()
        await task

    run(main())


def test_close_does_not_discard_queued_items():
    async def main():
        ch = LiveChannel("t", capacity=4)
        await ch.put("a")
        await ch.put("b")
        await ch.close()
        got = [await ch.get(), await ch.get()]
        with pytest.raises(ChannelClosed):
            await ch.get()
        return got

    assert run(main()) == ["a", "b"]


def test_put_after_close_raises():
    async def main():
        ch = LiveChannel("t", capacity=2)
        await ch.close()
        with pytest.raises(ChannelClosed):
            await ch.put("x")

    run(main())


def test_timed_out_put_never_enqueues():
    """A cancelled put (the transport's timeout path) must not leave a
    half-delivered item in the channel."""

    async def main():
        ch = LiveChannel("t", capacity=1)
        await ch.put("occupies")
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(ch.put("late"), timeout=0.01)
        assert await ch.get() == "occupies"
        await ch.put("next")
        return await ch.get()

    assert run(main()) == "next"


def test_latency_is_applied_on_delivery():
    async def main():
        ch = LiveChannel("t", capacity=2, latency=0.02)
        await ch.put("x")
        start = asyncio.get_running_loop().time()
        await ch.get()
        return asyncio.get_running_loop().time() - start

    assert run(main()) >= 0.015


# ----------------------------------------------------------------------
# Latency delays each batch; it does not queue batches behind each other
# ----------------------------------------------------------------------
LATENCY = 0.01


def test_back_to_back_batches_all_arrive_one_latency_later():
    """N batches put at t0 are due at t0 + L together, not one L apart
    (a link delays, it does not throttle to 1 / L batches a second)."""

    async def main():
        loop = asyncio.get_running_loop()
        ch = LiveChannel("t", capacity=16, latency=LATENCY)
        start = loop.time()
        for i in range(10):
            assert ch.try_put([i])
        got = []
        for __ in range(10):
            got.append((await ch.get(), loop.time() - start))
        return got

    got = run_virtual(main())
    assert [batch for batch, __ in got] == [[i] for i in range(10)]
    assert all(at == pytest.approx(LATENCY) for __, at in got)


def test_latency_keeps_fifo_order_and_each_batch_its_own_due_time():
    async def main():
        loop = asyncio.get_running_loop()
        ch = LiveChannel("t", capacity=16, latency=LATENCY)
        start = loop.time()
        for i in range(4):
            await ch.put(i)
            await asyncio.sleep(LATENCY / 4)
        got = []
        for __ in range(4):
            got.append((await ch.get(), loop.time() - start))
        return got

    got = run_virtual(main())
    assert [item for item, __ in got] == [0, 1, 2, 3]
    # each batch arrives one latency after its own put, L/4 apart
    assert [at for __, at in got] == pytest.approx(
        [LATENCY + i * LATENCY / 4 for i in range(4)]
    )


def test_due_batch_is_returned_without_sleeping(monkeypatch):
    async def main():
        ch = LiveChannel("t", capacity=4, latency=LATENCY)
        await ch.put("x")
        await asyncio.sleep(LATENCY)
        sleeps = []
        real_sleep = asyncio.sleep

        async def counting(delay, result=None):
            sleeps.append(delay)
            return await real_sleep(delay, result)

        monkeypatch.setattr(asyncio, "sleep", counting)
        got = await ch.get()
        monkeypatch.undo()
        return got, sleeps

    assert run_virtual(main()) == ("x", [])


def test_take_due_leaves_a_batch_on_the_wire_queued():
    async def main():
        ch = LiveChannel("t", capacity=4, latency=LATENCY)
        assert ch.take_due() is None  # empty
        await ch.put("x")
        early = ch.take_due(), ch.depth
        await asyncio.sleep(LATENCY)
        return early, ch.take_due(), ch.depth, ch.gets

    assert run_virtual(main()) == ((None, 1), "x", 0, 1)


def test_fail_returns_only_batches_and_leaves_no_stamp():
    async def main():
        loop = asyncio.get_running_loop()
        ch = LiveChannel("t", capacity=4, latency=LATENCY)
        await ch.put(["a"])
        await ch.put(["b", "c"])
        getter = asyncio.create_task(ch.get())
        await asyncio.sleep(0)  # the getter waits for ["a"] to be due
        lost = await ch.fail()
        with pytest.raises(ChannelClosed):
            await getter
        # a channel built afterwards (a recovered link) starts clean
        fresh = LiveChannel("t", capacity=4, latency=LATENCY)
        start = loop.time()
        await fresh.put(["d"])
        return lost, list(ch._due), await fresh.get(), loop.time() - start

    lost, stamps, got, waited = run_virtual(main())
    assert lost == [["a"], ["b", "c"]]
    assert stamps == []
    assert got == ["d"] and waited == pytest.approx(LATENCY)


# ----------------------------------------------------------------------
# Batcher
# ----------------------------------------------------------------------
def test_batcher_emits_full_batches():
    batcher = Batcher(3)
    assert batcher.add(1) is None
    assert batcher.add(2) is None
    assert batcher.add(3) == [1, 2, 3]
    assert batcher.pending == 0


def test_batcher_take_flushes_partial():
    batcher = Batcher(4)
    batcher.add("a")
    batcher.add("b")
    assert batcher.take() == ["a", "b"]
    assert batcher.take() is None


def test_batcher_size_one_passes_through():
    batcher = Batcher(1)
    assert batcher.add("x") == ["x"]


def test_batcher_rejects_bad_size():
    with pytest.raises(ValueError):
        Batcher(0)


# ----------------------------------------------------------------------
# try_put and the waiter queues
# ----------------------------------------------------------------------
async def settle() -> None:
    """Let every woken or cancelled waiter take its step."""
    for __ in range(4):
        await asyncio.sleep(0)


def test_try_put_reports_full_and_closed():
    async def main():
        ch = LiveChannel("t", capacity=2)
        assert ch.try_put("a") and ch.try_put("b")
        assert not ch.try_put("c")  # full: refused, nothing enqueued
        assert (ch.depth, ch.puts, ch.high_water, ch.blocked_puts) == (2, 2, 2, 0)
        assert await ch.get() == "a"
        assert ch.try_put("c")
        await ch.close()
        with pytest.raises(ChannelClosed):
            ch.try_put("d")
        return [await ch.get(), await ch.get()]

    assert run(main()) == ["b", "c"]


def test_cancelled_put_hands_its_wakeup_to_next_producer():
    """The lost-wake-up case: a producer cancelled after a ``get`` woke
    it (a send timeout racing the consumer) must neither enqueue nor
    leave the freed slot unannounced to the producer behind it."""

    async def main():
        ch = LiveChannel("t", capacity=1)
        await ch.put("occupies")
        first = asyncio.create_task(ch.put("first"))
        second = asyncio.create_task(ch.put("second"))
        await settle()
        assert ch.blocked_puts == 2
        assert await ch.get() == "occupies"  # wakes `first`, no yield
        first.cancel()  # ... which is cancelled before it can step
        await settle()
        assert first.cancelled() and second.done()
        return ch, await ch.get()

    ch, got = run(main())
    assert got == "second"
    assert ch.depth == 0 and ch.puts == 2


def test_cancelled_get_hands_its_wakeup_to_next_consumer():
    async def main():
        ch = LiveChannel("t", capacity=4)
        first = asyncio.create_task(ch.get())
        second = asyncio.create_task(ch.get())
        await settle()
        assert ch.try_put("x")  # wakes `first`
        first.cancel()
        await settle()
        assert first.cancelled() and second.done()
        return ch, second.result()

    ch, got = run(main())
    assert got == "x"
    assert ch.depth == 0 and ch.gets == 1


def test_close_wakes_every_blocked_producer_then_drains():
    async def main():
        ch = LiveChannel("t", capacity=2)
        await ch.put("a")
        await ch.put("b")
        producers = [asyncio.create_task(ch.put(i)) for i in range(3)]
        await settle()
        await ch.close()
        outcomes = await asyncio.gather(*producers, return_exceptions=True)
        assert all(isinstance(o, ChannelClosed) for o in outcomes)
        drained = [await ch.get(), await ch.get()]
        with pytest.raises(ChannelClosed):
            await ch.get()
        return drained

    assert run(main()) == ["a", "b"]


def test_close_wakes_every_blocked_consumer():
    async def main():
        ch = LiveChannel("t", capacity=2)
        consumers = [asyncio.create_task(ch.get()) for __ in range(3)]
        await settle()
        await ch.close()
        return await asyncio.gather(*consumers, return_exceptions=True)

    assert all(isinstance(o, ChannelClosed) for o in run(main()))


def test_fail_returns_discarded_batches_and_wakes_producers():
    async def main():
        ch = LiveChannel("t", capacity=2)
        await ch.put(["a"])
        await ch.put(["b", "c"])
        blocked = asyncio.create_task(ch.put(["d"]))
        await settle()
        lost = await ch.fail()
        with pytest.raises(ChannelClosed):
            await blocked
        with pytest.raises(ChannelClosed):
            await ch.get()
        return ch, lost

    ch, lost = run(main())
    assert lost == [["a"], ["b", "c"]]
    assert ch.depth == 0 and ch.closed


class ChannelMachine(RuleBasedStateMachine):
    """Interleaved ``try_put`` / ``put`` / ``get`` / cancel against a
    plain deque: FIFO, the capacity bound, and who is left blocked.

    The loop is settled after every rule, so blocked producers imply a
    full channel and blocked consumers an empty one — which makes the
    model exact: a freed slot goes to the longest-blocked producer, a
    new batch to the longest-blocked consumer.
    """

    CAPACITY = 3
    LATENCY = 0.0

    def __init__(self) -> None:
        super().__init__()
        self.loop = VirtualClockLoop()
        self.channel = LiveChannel(
            "model", capacity=self.CAPACITY, latency=self.LATENCY
        )
        self.queue: deque[int] = deque()
        self.putters: list[tuple[asyncio.Task, int]] = []
        self.getters: list[asyncio.Task] = []
        self.next_item = 0
        self.expected_blocked = 0

    def teardown(self) -> None:
        for task in [task for task, __ in self.putters] + self.getters:
            task.cancel()
        self.loop.run_until_complete(settle())
        self.loop.close()

    def _item(self) -> int:
        self.next_item += 1
        return self.next_item

    def _settle(self) -> None:
        """Settle, and let every queued batch come due: with latency the
        virtual clock moves one ``LATENCY`` on, then settles again."""
        self.loop.run_until_complete(settle())
        if self.LATENCY:
            self.loop.run_until_complete(asyncio.sleep(self.LATENCY))
            self.loop.run_until_complete(settle())

    def _in_loop(self, call):
        """``call()`` on the loop, whose clock stamps and dates batches."""

        async def run():
            return call()

        return self.loop.run_until_complete(run())

    def _hand_slot_to_putter(self) -> None:
        """Model side of a dequeue: the longest-blocked producer gets in."""
        if self.putters:
            producer, item = self.putters.pop(0)
            assert producer.done() and producer.exception() is None
            self.queue.append(item)

    def _model_enqueue(self, item: int) -> asyncio.Task | None:
        """Model side of a successful enqueue; returns the consumer it
        is handed to, if one was blocked."""
        self.queue.append(item)
        return self.getters.pop(0) if self.getters else None

    def _finish_getter(self, getter: asyncio.Task | None) -> None:
        if getter is not None:
            assert getter.done()
            assert getter.result() == self.queue.popleft()

    @rule()
    def try_put(self) -> None:
        item = self._item()
        full = len(self.queue) >= self.CAPACITY
        assert self._in_loop(lambda: self.channel.try_put(item)) is (not full)
        if not full:
            getter = self._model_enqueue(item)
            self._settle()
            self._finish_getter(getter)

    @rule()
    def put(self) -> None:
        item = self._item()
        task = self.loop.create_task(self.channel.put(item))
        if len(self.queue) >= self.CAPACITY:
            self.expected_blocked += 1
            self.putters.append((task, item))
            self._settle()
            assert not task.done()
            return
        getter = self._model_enqueue(item)
        self._settle()
        assert task.done() and task.exception() is None
        self._finish_getter(getter)

    @rule()
    def get(self) -> None:
        task = self.loop.create_task(self.channel.get())
        if not self.queue:
            self.getters.append(task)
            self._settle()
            assert not task.done()
            return
        expected = self.queue.popleft()
        self._settle()
        assert task.result() == expected
        self._hand_slot_to_putter()

    @rule()
    def take_due(self) -> None:
        # every queued batch was put by an earlier, settled rule: it is due
        got = self._in_loop(self.channel.take_due)
        if not self.queue:
            assert got is None
            return
        assert got == self.queue.popleft()
        self._settle()
        self._hand_slot_to_putter()

    @precondition(lambda self: self.putters)
    @rule(data=st.data())
    def cancel_blocked_put(self, data) -> None:
        index = data.draw(st.integers(0, len(self.putters) - 1))
        task, __ = self.putters.pop(index)
        task.cancel()
        self._settle()
        assert task.cancelled()

    @precondition(lambda self: self.getters)
    @rule(data=st.data())
    def cancel_blocked_get(self, data) -> None:
        index = data.draw(st.integers(0, len(self.getters) - 1))
        task = self.getters.pop(index)
        task.cancel()
        self._settle()
        assert task.cancelled()

    @invariant()
    def channel_matches_model(self) -> None:
        channel = self.channel
        assert channel.depth == len(self.queue) <= self.CAPACITY
        assert channel.high_water <= self.CAPACITY
        assert channel.blocked_puts == self.expected_blocked
        assert channel.puts - channel.gets == channel.depth
        assert all(not task.done() for task, __ in self.putters)
        assert all(not task.done() for task in self.getters)
        # cancelled waiters take their future with them
        assert len(channel._putters) == len(self.putters)
        assert len(channel._getters) == len(self.getters)


class LatentChannelMachine(ChannelMachine):
    """The same model on a link with latency: it delays, so after the
    clock has moved one latency on, every outcome is the deque's."""

    LATENCY = 0.01


for machine in (ChannelMachine, LatentChannelMachine):
    machine.TestCase.settings = settings(
        max_examples=60, stateful_step_count=40, deadline=None
    )
test_channel_against_deque_model = ChannelMachine.TestCase
test_latent_channel_against_deque_model = LatentChannelMachine.TestCase
