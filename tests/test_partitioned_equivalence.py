"""Property tests: partitioned execution ≡ single-fragment execution.

The intra-operator parallelism contract is that a stage split across N
partitions behind a :class:`~repro.engine.partition.PartitionRouter`
and re-joined by a :class:`~repro.engine.partition.MergeStageOperator`
is *bit-identical* to the plain operator — outputs, values, sizes, and
sequence numbering all equal, for every partition count, key skew, and
window size.  Hypothesis drives random tuple sequences (non-decreasing
``created_at``, mixed streams, controllably skewed keys) through the
synchronous :class:`~repro.engine.partition.PartitionedOperator`
composition and compares against a fresh single instance exactly —
including runs with mid-stream skew-triggered rebalances, which must be
invisible in the output.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine.operators.aggregate import WindowAggregateOperator
from repro.engine.operators.join import WindowJoinOperator
from repro.engine.partition import (
    HASH,
    RANGE,
    PartitionSpec,
    PartitionedOperator,
)
from repro.streams.tuples import StreamTuple

finite = st.floats(
    min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
)

# Key pools with increasing skew: uniform, hot-key-heavy, single-key.
KEY_POOLS = (
    tuple(float(k) for k in range(8)),
    (0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0),
)


@st.composite
def tuple_sequences(draw):
    """Random time-ordered tuple sequence with a chosen key skew.

    Streams mix the stage's inputs (``a``/``b``) with a pass-through
    stream ``c`` the stage must forward untouched; key-less tuples ride
    ``c`` (a join-stream tuple must carry the join key — that is the
    single operator's own contract) and exercise the aggregate's
    non-attribute pass-through path.
    """
    pool = draw(st.sampled_from(KEY_POOLS))
    count = draw(st.integers(min_value=0, max_value=60))
    now = 0.0
    tuples = []
    for seq in range(count):
        now += draw(st.floats(min_value=0.0, max_value=1.5))
        if draw(st.integers(0, 9)) == 0:
            stream_id = "c"
            values = {"other": draw(finite)}
        else:
            stream_id = draw(st.sampled_from(["a", "b", "c"]))
            values = {
                "k": draw(st.sampled_from(pool)),
                "x": draw(finite),
            }
        tuples.append(StreamTuple(stream_id, seq, now, values, 48.0))
    return tuples


def make_join(window: float) -> WindowJoinOperator:
    return WindowJoinOperator(
        "q.join", "a", "b", "k", window=window, tolerance=0.0
    )


def make_agg(window: float) -> WindowAggregateOperator:
    return WindowAggregateOperator(
        "q.agg", "x", fn="sum", window=window, group_by="k"
    )


def run_single(make_operator, window, tuples):
    op = make_operator(window)
    out = []
    for tup in tuples:
        out.extend(op.process(tup, tup.created_at))
    return out


def run_partitioned(
    make_operator, window, tuples, parts, *, scheme=HASH, rebalance_at=()
):
    spec_kwargs = {"key": "k", "parts": parts, "scheme": scheme}
    if scheme == RANGE:
        spec_kwargs["boundaries"] = tuple(
            8.0 * (i + 1) / parts for i in range(parts - 1)
        )
    op = PartitionedOperator(
        make_operator(window), PartitionSpec(**spec_kwargs)
    )
    out = []
    for index, tup in enumerate(tuples):
        out.extend(op.process(tup, tup.created_at))
        if index in rebalance_at:
            op.rebalance()
    return out


@pytest.mark.parametrize("parts", range(1, 9))
@pytest.mark.parametrize("window", [0.5, 2.0, 10.0])
@settings(max_examples=15, deadline=None)
@given(tuples=tuple_sequences())
def test_partitioned_join_equals_single(parts, window, tuples):
    """Hash-partitioned exact-match join is bit-identical to single."""
    assert run_partitioned(make_join, window, tuples, parts) == run_single(
        make_join, window, tuples
    )


@pytest.mark.parametrize("parts", range(1, 9))
@pytest.mark.parametrize("window", [0.5, 2.0, 10.0])
@settings(max_examples=15, deadline=None)
@given(tuples=tuple_sequences())
def test_partitioned_aggregate_equals_single(parts, window, tuples):
    """Hash-partitioned grouped aggregate is bit-identical to single."""
    assert run_partitioned(make_agg, window, tuples, parts) == run_single(
        make_agg, window, tuples
    )


@pytest.mark.parametrize("parts", [2, 3, 5])
@settings(max_examples=15, deadline=None)
@given(tuples=tuple_sequences())
def test_range_partitioned_equals_single(parts, tuples):
    """Key-range partitioning satisfies the same equivalence contract."""
    for make in (make_join, make_agg):
        assert run_partitioned(
            make, 2.0, tuples, parts, scheme=RANGE
        ) == run_single(make, 2.0, tuples)


def trades(rows):
    """``(stream, created_at, key)`` rows as a tuple sequence."""
    return [
        StreamTuple(stream_id, seq, at, {"k": key, "x": float(seq)}, 48.0)
        for seq, (stream_id, at, key) in enumerate(rows)
    ]


# Key 4.0 shares partition 0 with the hot key 0.0 until the rebalance at
# index 4 moves it; its window still holds two ``a`` tuples then, which a
# later ``b`` joins and a later ``a`` adds to.
STATE_BEHIND_A_REBALANCE = trades(
    [
        ("a", 0.0, 0.0),
        ("a", 0.5, 0.0),
        ("a", 1.0, 0.0),
        ("a", 1.5, 4.0),
        ("a", 2.0, 4.0),
        ("b", 3.0, 4.0),
        ("b", 3.5, 0.0),
        ("a", 4.0, 4.0),
        ("a", 12.0, 1.0),
    ]
)


@pytest.mark.parametrize("make", [make_join, make_agg], ids=["join", "agg"])
@settings(max_examples=20, deadline=None)
@given(
    tuples=tuple_sequences(),
    window=st.sampled_from([1.0, 10.0]),
    cuts=st.lists(
        st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=3
    ),
)
@example(tuples=STATE_BEHIND_A_REBALANCE, window=10.0, cuts=[0.5])
def test_rebalance_is_invisible_in_output(make, tuples, window, cuts):
    """Mid-stream skew rebalances never change the merged output.

    A ten-second window still holds what a key saw before a rebalance
    moved it, so a rebalance that left the key's state behind in its
    old partition shows in the output — always on the explicit example.
    """
    stops = {int(cut * len(tuples)) for cut in cuts}
    assert run_partitioned(
        make, window, tuples, 4, rebalance_at=stops
    ) == run_single(make, window, tuples)


def test_partitioned_operator_rejects_band_join():
    """Band joins (tolerance > 0) must refuse hash partitioning."""
    band = WindowJoinOperator("q.join", "a", "b", "k", window=1.0, tolerance=0.5)
    with pytest.raises(TypeError):
        PartitionedOperator(band, PartitionSpec(key="k", parts=2))


def test_partitioned_operator_rejects_ungrouped_aggregate():
    """Ungrouped aggregates have one global state; they cannot split."""
    agg = WindowAggregateOperator("q.agg", "x", fn="sum", window=1.0)
    with pytest.raises(TypeError):
        PartitionedOperator(agg, PartitionSpec(key="k", parts=2))
