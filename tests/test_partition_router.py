"""Property tests for the partition router and the merge protocol.

Three contracts from ``docs/protocols.md`` §7:

* **coverage / no duplicates** — a :class:`PartitionSpec` is a total
  function: every key value maps to exactly one partition in range,
  under both schemes and with hot-key overrides installed; the router
  accordingly sends every stage input to exactly one partition.
* **rebalancing preserves the key space** — a rebalanced spec differs
  only in overrides, so it remains total over the same key space.
* **merge determinism** — links are FIFO, so each sender's stream (the
  router's schedule, every partition's outputs and acks) reaches the
  merge in order, but the senders interleave freely: every such
  interleaving produces the single operator's ordered result set.
"""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.operators.aggregate import WindowAggregateOperator
from repro.engine.operators.join import WindowJoinOperator
from repro.engine.partition import (
    HASH,
    RANGE,
    MergeStageOperator,
    PartitionRouter,
    PartitionSpec,
    PartitionStageOperator,
)
from repro.streams.tuples import StreamTuple

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def specs(draw):
    """Random hash/range specs, sometimes with hot-key overrides."""
    parts = draw(st.integers(min_value=1, max_value=8))
    scheme = draw(st.sampled_from([HASH, RANGE]))
    boundaries = None
    if scheme == RANGE:
        cuts = draw(
            st.lists(
                finite, min_size=parts - 1, max_size=parts - 1, unique=True
            )
        )
        boundaries = tuple(sorted(cuts))
    overrides = tuple(
        (draw(finite), draw(st.integers(0, parts - 1)))
        for __ in range(draw(st.integers(0, 3)))
    )
    return PartitionSpec(
        key="k",
        parts=parts,
        scheme=scheme,
        boundaries=boundaries,
        overrides=overrides,
    )


@settings(max_examples=200, deadline=None)
@given(spec=specs(), value=finite)
def test_every_key_maps_to_exactly_one_partition(spec, value):
    """Totality and determinism of the partition function."""
    part = spec.partition_of(value)
    assert 0 <= part < spec.parts
    assert spec.partition_of(value) == part


@settings(max_examples=100, deadline=None)
@given(spec=specs())
def test_nan_keys_are_owned(spec):
    """Even NaN (unhashable-by-value) keys have exactly one owner."""
    part = spec.partition_of(float("nan"))
    assert 0 <= part < spec.parts


@settings(max_examples=100, deadline=None)
@given(
    spec=specs(),
    counts=st.dictionaries(finite, st.integers(1, 1000), max_size=12),
    probe=finite,
)
def test_rebalanced_spec_preserves_key_space(spec, counts, probe):
    """Rebalancing changes only overrides; the function stays total."""
    rebalanced = spec.rebalanced(counts)
    assert rebalanced.parts == spec.parts
    assert rebalanced.scheme == spec.scheme
    assert rebalanced.boundaries == spec.boundaries
    for value in list(counts) + [probe]:
        assert 0 <= rebalanced.partition_of(value) < rebalanced.parts


@settings(max_examples=100, deadline=None)
@given(
    counts=st.dictionaries(
        st.integers(0, 20).map(float), st.integers(1, 1000), max_size=16
    )
)
def test_rebalance_never_worsens_makespan(counts):
    """The greedy only applies strictly improving hot-key moves."""
    spec = PartitionSpec(key="k", parts=4)

    def makespan(candidate):
        loads = [0.0] * candidate.parts
        for value, count in counts.items():
            loads[candidate.partition_of(value)] += count
        return max(loads)

    assert makespan(spec.rebalanced(counts)) <= makespan(spec)


def _sender_streams(tuples, parts):
    """Run router + stages; return what each sender hands the merge —
    the router's schedule first, then each partition's stream."""
    agg = WindowAggregateOperator(
        "q.agg", "x", fn="sum", window=1.0, group_by="k"
    )
    router = PartitionRouter.for_operator(
        agg, PartitionSpec(key="k", parts=parts)
    )
    stages = [
        PartitionStageOperator(agg.clone(), index, parts)
        for index in range(parts)
    ]
    streams = [[] for _ in range(parts + 1)]
    for tup in tuples:
        for dest, event in router.route(tup):
            if dest == PartitionRouter.MERGE:
                streams[0].append(event)
            else:
                streams[dest + 1].extend(
                    stages[dest].process(event, tup.created_at)
                )
    return streams


@pytest.mark.parametrize("parts", [2, 4, 7])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_merge_output_is_arrival_order_invariant(parts, data):
    """Every arrival order that keeps each sender's own order — what
    FIFO links guarantee — yields the single operator's output, and
    leaves nothing buffered in the merge."""
    count = data.draw(st.integers(0, 40))
    now = 0.0
    tuples = []
    for seq in range(count):
        now += data.draw(st.floats(min_value=0.0, max_value=0.6))
        tuples.append(
            StreamTuple(
                "s",
                seq,
                now,
                {
                    "k": float(data.draw(st.integers(0, 5))),
                    "x": data.draw(st.floats(0.0, 100.0)),
                },
                48.0,
            )
        )
    pending = [deque(s) for s in _sender_streams(tuples, parts) if s]
    rng = data.draw(st.randoms(use_true_random=False))
    merge = MergeStageOperator("q.agg", parts, group_by="k")
    out = []
    while pending:
        sender = rng.randrange(len(pending))
        event = pending[sender].popleft()
        if not pending[sender]:
            del pending[sender]
        out.extend(merge.process(event, event.created_at))
    assert merge.buffered() == 0
    single = WindowAggregateOperator(
        "q.agg", "x", fn="sum", window=1.0, group_by="k"
    )
    assert out == [
        result
        for tup in tuples
        for result in single.process(tup, tup.created_at)
    ]


def test_router_sends_each_input_to_exactly_one_partition():
    """Coverage accounting: one schedule ticket and one partition event
    per input, and partition counts sum to the keyed input count."""
    join = WindowJoinOperator(
        "q.join", "a", "b", "k", window=1.0, tolerance=0.0
    )
    router = PartitionRouter.for_operator(
        join, PartitionSpec(key="k", parts=4)
    )
    rng = random.Random(11)
    routed = 0
    for seq in range(300):
        stream = rng.choice(["a", "b", "c"])
        tup = StreamTuple(
            stream,
            seq,
            seq * 0.01,
            {"k": float(rng.randint(0, 30)), "x": 1.0},
            48.0,
        )
        events = router.route(tup)
        sched = [e for dest, e in events if dest == PartitionRouter.MERGE]
        data = [(dest, e) for dest, e in events if dest != PartitionRouter.MERGE]
        assert len(sched) == 1  # exactly one global ticket per input
        assert len(data) == 1  # exactly one owning partition per input
        assert int(sched[0].values["partition"]) == data[0][0]
        if stream in ("a", "b"):
            routed += 1
    assert sum(router.partition_counts) == routed
    assert sum(router.key_counts.values()) == routed


def test_repartition_rejects_changed_part_count():
    """A live repartition may move keys, never resize the fan-out."""
    agg = WindowAggregateOperator(
        "q.agg", "x", fn="sum", window=1.0, group_by="k"
    )
    router = PartitionRouter.for_operator(
        agg, PartitionSpec(key="k", parts=4)
    )
    with pytest.raises(ValueError):
        router.repartition(PartitionSpec(key="k", parts=3))
