"""Table tests: what the envelope parser accepts and refuses.

The partition protocol rides in stream ids (``docs/protocols.md`` §7):
the router hands a partition its inputs as they are, and partition
``i`` sends every output under the constant prefix
``<stage>.__p<i>__/``, ``i`` in ASCII digits and below the stage's
partition count, closing each event with its ack.  At the merge,
anything else is *not an envelope* and must travel on untouched,
whatever it looks like — a stage or a merge that raises on a stream id
takes its whole fragment down.
"""

from __future__ import annotations

import pytest

from repro.engine.operators.join import WindowJoinOperator
from repro.engine.partition import (
    MergeStageOperator,
    PartitionStageOperator,
    ack_stream,
    sched_stream,
)
from repro.streams.tuples import StreamTuple

STAGE = "j"


def tup(stream_id: str, seq: int = 5) -> StreamTuple:
    return StreamTuple(stream_id, seq, 1.0, {"k": 1.0}, 10.0)


def sched(part: int) -> StreamTuple:
    return StreamTuple(sched_stream(STAGE), 0, 0.0, {"partition": part}, 16.0)


def ack(part: int) -> StreamTuple:
    return StreamTuple(ack_stream(STAGE, part), 0, 0.0, {}, 16.0)


NOT_A_MERGE_ENVELOPE = [
    "j.__p__/x",  # an empty field
    "j.__pa__/x",  # a non-digit field
    "j.__p+1__/x",
    "j.__p 1__/x",
    "j.__p1_0__/x",
    "j.__p²__/x",  # str.isdigit() is true, int() raises
    "j.__p١__/x",  # str.isdigit() is true, int() gives 1
    "j.__p1",  # no separator
    "j.__p1__x",
    "j.__p2__/x",  # part >= parts
    "x.__p1__/x",  # another stage's
    # the retired per-output form "<stage>.__p<part>.<event>.<index>__/"
    # and malformations of it
    "j.__p1..2__/x",
    "j.__p.0.0__/x",
    "j.__p1.a.2__/x",
    "j.__p1.+2.0__/x",
    "j.__p1.-2.0__/x",
    "j.__p1. 2.0__/x",
    "j.__p1.1_0.0__/x",
    "j.__p1.².0__/x",
    "j.__p١.0.0__/x",
    "j.__p1.2__/x",
    "j.__p1.2.3.4__/x",
    "j.__p1.2.3",
    "j.__p1.2.3__x",
    "j.__p2.0.0__/x",
    "j.__p",
    "x.__p1.0.0__/x",
    "j.out",
]


@pytest.mark.parametrize("stream_id", NOT_A_MERGE_ENVELOPE)
def test_merge_forwards_what_is_not_an_envelope(stream_id):
    merge = MergeStageOperator(STAGE, 2)
    item = tup(stream_id)
    assert merge.process_batch([item], 0.0) == [item]
    assert merge.process_batch([item], 0.0)[0] is item
    assert merge.buffered() == 0


@pytest.mark.parametrize(
    "original",
    ["j.out", "a.b", "a__/b", "j.__p1__/x", "j.__p1.0.0__/x", "__/", ""],
)
def test_merge_decodes_an_original_id_with_separators_in_it(original):
    merge = MergeStageOperator(STAGE, 2)
    enveloped = tup(f"j.__p1__/{original}")
    out = merge.process_batch([sched(1), enveloped, ack(1)], 0.0)
    # only the stage's own output stream is renumbered
    seq = 0 if original == "j.out" else enveloped.seq
    assert out == [StreamTuple(original, seq, 1.0, {"k": 1.0}, 10.0)]
    assert out[0].values is enveloped.values
    assert merge.buffered() == 0


def make_stage(index: int = 0) -> PartitionStageOperator:
    inner = WindowJoinOperator(STAGE, "l", "r", "k", window=5.0)
    return PartitionStageOperator(inner, index, 2)


# The stage reads no envelope: whatever arrives is its next event, run
# as it came — ids shaped like the retired router envelope included.
NOT_A_STAGE_ENVELOPE = [
    "j.__evt__/l",
    "j.__evta__/l",
    "j.__evt+0__/l",
    "j.__evt 0__/l",
    "j.__evt0_0__/l",
    "j.__evt²__/l",
    "j.__evt١__/l",
    "j.__evt0",
    "j.__evt0__l",
    "x.__evt0__/l",
    "other",
]


@pytest.mark.parametrize("stream_id", NOT_A_STAGE_ENVELOPE)
def test_stage_runs_what_is_not_an_envelope_as_it_came(stream_id):
    """The join has never heard of the stream and passes it through, so
    it leaves under its own id behind the partition's prefix."""
    stage = make_stage()
    item = tup(stream_id)
    assert stage.cost(item) == stage.inner.cost(item)
    passed, closed = stage.process_batch([item], 0.0)
    assert passed == StreamTuple(
        f"j.__p0__/{stream_id}", item.seq, 1.0, item.values, 10.0
    )
    assert closed.stream_id == ack_stream(STAGE, 0)


def test_stage_envelopes_an_events_outputs_then_acks():
    """One event: its outputs under the constant partition prefix, then
    the stage's ack — the same ack tuple for every event."""
    stage = make_stage(1)
    first = stage.process_batch([tup("l"), tup("other")], 0.0)
    assert [t.stream_id for t in first] == [
        ack_stream(STAGE, 1),  # l: buffered in the window, no output
        "j.__p1__/other",  # a stream the join passes through
        ack_stream(STAGE, 1),
    ]
    assert first[1] == StreamTuple("j.__p1__/other", 5, 1.0, {"k": 1.0}, 10.0)
    second = stage.process_batch([tup("r")], 0.0)
    assert [t.stream_id for t in second] == [
        "j.__p1__/j.out",  # r joins l
        ack_stream(STAGE, 1),
    ]
    assert second[-1] is first[0]


def test_merge_releases_partition_events_in_ticket_order():
    """The schedule names partition 1 then partition 0: partition 0's
    closed event waits for partition 1's, and an event is released
    only once its ack has closed it."""
    merge = MergeStageOperator(STAGE, 2)
    assert merge.process_batch([sched(1), sched(0)], 0.0) == []
    assert merge.process_batch([tup("j.__p0__/a"), ack(0)], 0.0) == []
    assert merge.process_batch([tup("j.__p1__/b")], 0.0) == []
    assert merge.buffered() == 4  # two tickets, one open, one closed
    out = merge.process_batch([ack(1)], 0.0)
    assert [t.stream_id for t in out] == ["b", "a"]
    assert merge.buffered() == 0
