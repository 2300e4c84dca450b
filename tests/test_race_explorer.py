"""Tests for the deterministic interleaving explorer and HB detector."""

from __future__ import annotations

import asyncio

import pytest

from repro.analysis.concurrency.explorer import (
    SCENARIOS,
    RaceExplorer,
    result_fingerprint,
)
from repro.analysis.concurrency.hb import (
    DRD_RULES,
    HBMonitor,
    TrackedState,
    VectorClock,
)
from repro.analysis.concurrency.schedule import (
    PreemptionBounded,
    RandomWalk,
    ScheduleController,
    ScheduleTrace,
    ScheduledLoop,
    format_trace,
    make_strategy,
    parse_trace,
)


# ----------------------------------------------------------------------
# Schedule strategies + controller
# ----------------------------------------------------------------------
def test_strategies_are_deterministic_in_seed():
    labels = [f"task-{i}" for i in range(6)]
    for cls in (RandomWalk, PreemptionBounded):
        a, b = cls(seed=42), cls(seed=42)
        for _ in range(50):
            assert a.reorder(labels) == b.reorder(labels)


def test_random_walk_returns_permutations():
    strategy = RandomWalk(seed=3)
    labels = ["a", "b", "c", "d", "e"]
    for _ in range(20):
        order = strategy.reorder(labels)
        assert sorted(order) == list(range(len(labels)))


def test_preemption_bounded_targets_focus_labels():
    strategy = PreemptionBounded(seed=1, rate=1.0, bound=1000)
    labels = ["live:src/a", "live:adaptation", "live:proc/x"]
    moved_focus = 0
    for _ in range(50):
        order = strategy.reorder(labels)
        if order is None:
            continue
        assert sorted(order) == [0, 1, 2]
        # The perturbed task is always the control-plane one.
        if order[0] == 1 or order[-1] == 1:
            moved_focus += 1
    assert moved_focus > 0
    assert strategy.spent == moved_focus


def test_preemption_budget_is_bounded():
    strategy = PreemptionBounded(seed=5, rate=1.0, bound=3)
    labels = ["live:adaptation", "live:src/a"]
    for _ in range(100):
        strategy.reorder(labels)
    assert strategy.spent == 3


def test_controller_rejects_non_permutation():
    class Broken(RandomWalk):
        def reorder(self, labels):
            return [0, 0]

    controller = ScheduleController(Broken(seed=0))
    from collections import deque

    with pytest.raises(RuntimeError, match="non-permutation"):
        controller.permute(deque(["x", "y"]))


def test_scheduled_loop_checksum_reproducible():
    """Same seed -> bit-identical schedule fingerprint end to end."""

    async def busywork() -> int:
        async def child(n: int) -> int:
            await asyncio.sleep(0)
            return n

        results = await asyncio.gather(*(child(n) for n in range(8)))
        return sum(results)

    fingerprints = []
    for _ in range(2):
        controller = ScheduleController(RandomWalk(seed=9))
        with asyncio.Runner(loop_factory=controller.loop_factory) as runner:
            assert runner.run(busywork()) == sum(range(8))
        fingerprints.append((controller.decisions, controller.fingerprint()))
    assert fingerprints[0] == fingerprints[1]
    assert fingerprints[0][0] > 0


# ----------------------------------------------------------------------
# Trace files
# ----------------------------------------------------------------------
def test_trace_round_trip():
    trace = ScheduleTrace(
        scenario="migration",
        strategy="preemption-bounded",
        seed=17,
        decisions=42,
        checksum="00c0ffee",
        params={"rate": "0.25", "bound": "64"},
        failure="[race] DRD001 somewhere\n[race] second line",
        result_hash="ab" * 32,
        reference_hash="cd" * 32,
    )
    parsed = parse_trace(format_trace(trace))
    assert parsed == trace


def test_trace_missing_fields_rejected():
    with pytest.raises(ValueError, match="missing fields"):
        parse_trace("scenario=migration\n")


def test_trace_malformed_line_rejected():
    with pytest.raises(ValueError, match="malformed"):
        parse_trace("scenario=x\nstrategy=y\nseed=1\n!!!\n")


def test_make_strategy_unknown_name():
    with pytest.raises(ValueError, match="unknown schedule strategy"):
        make_strategy("nope", 0)


def test_trace_rebuilds_equivalent_controller():
    trace = ScheduleTrace(
        scenario="credit",
        strategy="preemption-bounded",
        seed=3,
        params={"rate": "0.5", "bound": "7"},
    )
    strategy = trace.make_controller().strategy
    assert isinstance(strategy, PreemptionBounded)
    assert strategy.seed == 3
    assert strategy.rate == 0.5
    assert strategy.bound == 7


# ----------------------------------------------------------------------
# Vector clocks + tracked state
# ----------------------------------------------------------------------
def test_vector_clock_ordering():
    a, b = VectorClock(), VectorClock()
    a.tick(1)
    assert not a.happened_before(b)
    b.join(a)
    b.tick(2)
    assert a.happened_before(b)
    assert not b.happened_before(a)


def test_tracked_state_aliases_original_dict():
    """The wrapper mutates the original mapping, so aliases stay live."""
    monitor = HBMonitor()
    original: dict[str, int] = {"x": 1}
    tracked = TrackedState(original, monitor, "state")
    tracked["y"] = 2
    assert original == {"x": 1, "y": 2}
    del tracked["x"]
    assert original == {"y": 2}
    assert len(tracked) == 1 and "y" in tracked


def test_unordered_writes_raise_drd001():
    monitor = HBMonitor()
    state = TrackedState({}, monitor, "table")

    async def main() -> None:
        asyncio.get_running_loop().set_task_factory(monitor.task_factory)

        async def writer(value: int) -> None:
            state["k"] = value

        await asyncio.gather(
            asyncio.create_task(writer(1), name="race:w1"),
            asyncio.create_task(writer(2), name="race:w2"),
        )

    asyncio.run(main())
    rules = {finding.rule for finding in monitor.findings()}
    assert "DRD001" in rules


def test_channel_edge_orders_accesses():
    """A put/get hand-off must clear the write/read pair."""
    from repro.live.channels import LiveChannel
    from repro.analysis.concurrency.instrument import wrap_channel

    monitor = HBMonitor()
    state = TrackedState({}, monitor, "table")

    async def main() -> None:
        asyncio.get_running_loop().set_task_factory(monitor.task_factory)
        channel = LiveChannel("race-test", capacity=4)
        wrap_channel(channel, monitor)

        async def writer() -> None:
            state["k"] = 1
            await channel.put("ready")

        async def reader() -> None:
            await channel.get()
            _ = state["k"]

        await asyncio.gather(
            asyncio.create_task(writer(), name="race:w"),
            asyncio.create_task(reader(), name="race:dataflow-r"),
        )

    asyncio.run(main())
    assert monitor.findings() == []


def test_synchronous_fast_path_edges_order_accesses():
    """``try_put`` (how the transport enqueues) and ``try_acquire`` carry
    the same edges as their awaited forms."""
    from repro.distributed.links import CreditGate
    from repro.live.channels import LiveChannel
    from repro.analysis.concurrency.instrument import (
        wrap_channel,
        wrap_credit_gate,
    )

    monitor = HBMonitor()
    state = TrackedState({}, monitor, "table")

    async def main() -> None:
        asyncio.get_running_loop().set_task_factory(monitor.task_factory)
        channel = LiveChannel("race-test", capacity=4)
        wrap_channel(channel, monitor)
        gate = CreditGate(1)
        wrap_credit_gate(gate, monitor, "race-test")
        assert gate.try_acquire()

        async def writer() -> None:
            state["k"] = 1
            assert channel.try_put("ready")

        async def reader() -> None:
            await channel.get()
            state["k"] = 2
            await gate.release()

        async def credited() -> None:
            while not gate.try_acquire():
                await asyncio.sleep(0)
            _ = state["k"]

        await asyncio.gather(
            asyncio.create_task(writer(), name="race:w"),
            asyncio.create_task(reader(), name="race:dataflow-r"),
            asyncio.create_task(credited(), name="race:dataflow-c"),
        )

    asyncio.run(main())
    assert monitor.findings() == []


def test_drd_rules_documented():
    assert set(DRD_RULES) == {"DRD001", "DRD002", "DRD003", "DRD004"}
    for text in DRD_RULES.values():
        assert text


# ----------------------------------------------------------------------
# Explorer sweeps (small budgets; the full sweep runs in CI nightly)
# ----------------------------------------------------------------------
def test_result_fingerprint_set_semantics():
    from repro.streams.tuples import StreamTuple

    def tup(seq: int) -> StreamTuple:
        return StreamTuple(
            stream_id="s",
            seq=seq,
            created_at=0.1 * seq,
            values={"v": seq},
            size=1.0,
        )

    a = result_fingerprint({"q": [tup(1), tup(2)]})
    b = result_fingerprint({"q": [tup(2), tup(1)]})
    assert a == b  # order-invariant
    assert a != result_fingerprint({"q": [tup(1)]})  # loss changes it
    assert a != result_fingerprint({"q": [tup(1), tup(1), tup(2)]})  # dup too


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenarios_run_clean(name, tmp_path):
    explorer = RaceExplorer(
        scenarios=[name], schedules=4, seed=0, trace_dir=tmp_path
    )
    sweep = explorer.run()
    assert sweep.explored == 4
    failures = [run.failure.render() for run in sweep.failures]
    assert failures == []
    assert sum(run.exercised for run in sweep.runs) > 0, (
        f"{name} never exercised its control machinery"
    )


def test_parity_reference_is_schedule_invariant(tmp_path):
    explorer = RaceExplorer(
        scenarios=["migration"], schedules=3, seed=5, trace_dir=tmp_path
    )
    sweep = explorer.run()
    hashes = {run.result_hash for run in sweep.runs}
    assert len(hashes) == 1, "migration result set diverged across schedules"


def test_failure_writes_replayable_trace(tmp_path, monkeypatch):
    """An injected failure must write a trace that replays to the same
    schedule fingerprint and reproduces the failure."""
    from repro.distributed.links import CreditGate

    async def buggy_release(self: CreditGate, n: int = 1) -> None:
        async with self._cond:
            self._credits += n
            self._cond.notify_all()

    monkeypatch.setattr(CreditGate, "release", buggy_release)
    explorer = RaceExplorer(
        scenarios=["credit"], schedules=1, seed=11, trace_dir=tmp_path
    )
    sweep = explorer.run()
    assert len(sweep.failures) == 1
    trace_path = sweep.failures[0].trace_path
    assert trace_path is not None and trace_path.exists()
    trace = parse_trace(trace_path.read_text(encoding="utf-8"))
    assert trace.scenario == "credit"
    assert trace.failure and "DRD004" in trace.failure

    replayed = RaceExplorer(trace_dir=tmp_path).replay(trace)
    assert not replayed.ok
    assert replayed.checksum == trace.checksum
    assert replayed.decisions == trace.decisions


def test_replay_on_clean_tree_validates(tmp_path):
    """Replaying a trace on a fixed tree reports no failure."""
    trace = ScheduleTrace(
        scenario="credit", strategy="random-walk", seed=23
    )
    result = RaceExplorer(trace_dir=tmp_path).replay(trace)
    assert result.ok
    assert result.exercised > 0
