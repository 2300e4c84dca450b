"""Table tests: what the in-band envelope parsers accept and refuse.

The partition protocol rides in stream ids (``docs/protocols.md`` §7):
``<stage>.__evt<event>__/<id>`` router → partition and
``<stage>.__p<part>.<event>.<index>__/<id>`` partition → merge, every
number in ASCII digits.  Anything else is *not an envelope* and must
travel on untouched, whatever it looks like — a stage or a merge that
raises on a stream id takes its whole fragment down.
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


NOT_A_MERGE_ENVELOPE = [
    "j.__p1..2__/x",  # an empty field
    "j.__p.0.0__/x",
    "j.__p1.a.2__/x",  # a non-digit field
    "j.__p1.+2.0__/x",
    "j.__p1.-2.0__/x",
    "j.__p1. 2.0__/x",
    "j.__p1.1_0.0__/x",
    "j.__p1.².0__/x",  # str.isdigit() is true, int() raises
    "j.__p١.0.0__/x",  # str.isdigit() is true, int() gives 1
    "j.__p1.2__/x",  # two fields
    "j.__p1.2.3.4__/x",  # four fields
    "j.__p1.2.3",  # no separator
    "j.__p1.2.3__x",
    "j.__p2.0.0__/x",  # part >= parts
    "j.__p",
    "x.__p1.0.0__/x",  # another stage's
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
    "original", ["j.out", "a.b", "a__/b", "j.__p1.0.0__/x", "__/", ""]
)
def test_merge_decodes_an_original_id_with_separators_in_it(original):
    merge = MergeStageOperator(STAGE, 2)
    enveloped = tup(f"j.__p1.0.0__/{original}")
    out = merge.process_batch(
        [
            StreamTuple(sched_stream(STAGE), 0, 1.0, {"partition": 1.0}, 16.0),
            enveloped,
            StreamTuple(
                ack_stream(STAGE, 1), 0, 1.0, {"event": 0.0, "count": 1.0}, 16.0
            ),
        ],
        0.0,
    )
    # only the stage's own output stream is renumbered
    seq = 0 if original == "j.out" else enveloped.seq
    assert out == [StreamTuple(original, seq, 1.0, {"k": 1.0}, 10.0)]
    assert out[0].values is enveloped.values
    assert merge.buffered() == 0


NOT_A_STAGE_ENVELOPE = [
    "j.__evt__/l",  # an empty field
    "j.__evta__/l",
    "j.__evt+0__/l",
    "j.__evt 0__/l",
    "j.__evt0_0__/l",
    "j.__evt²__/l",
    "j.__evt١__/l",
    "j.__evt0",  # no separator
    "j.__evt0__l",
    "x.__evt0__/l",
    "other",
]


def make_stage() -> PartitionStageOperator:
    inner = WindowJoinOperator(STAGE, "l", "r", "k", window=5.0)
    return PartitionStageOperator(inner, 0, 2)


@pytest.mark.parametrize("stream_id", NOT_A_STAGE_ENVELOPE)
def test_stage_runs_what_is_not_an_envelope_as_it_came(stream_id):
    """Unsequenced input is the next event; the join has never heard of
    the stream and passes it through, so it leaves under its own id."""
    stage = make_stage()
    item = tup(stream_id)
    assert stage.cost(item) == stage.inner.cost(item)
    passed, ack = stage.process_batch([item], 0.0)
    assert passed == StreamTuple(
        f"j.__p0.0.0__/{stream_id}", item.seq, 1.0, item.values, 10.0
    )
    assert ack.values == {"event": 0.0, "count": 1.0}
    assert stage.held_events() == 0


@pytest.mark.parametrize("original", ["a.b", "a__/b", "j.__evt7__/l", ""])
def test_stage_decodes_an_original_id_with_separators_in_it(original):
    stage = make_stage()
    passed, __ = stage.process_batch([tup(f"j.__evt0__/{original}")], 0.0)
    assert passed.stream_id == f"j.__p0.0.0__/{original}"


def test_stage_holds_a_sequenced_event_that_came_early():
    stage = make_stage()
    assert stage.process_batch([tup("j.__evt1__/l")], 0.0) == []
    assert stage.held_events() == 1
    out = stage.process_batch([tup("j.__evt0__/r")], 0.0)
    assert [t.stream_id for t in out] == [
        ack_stream(STAGE, 0),  # event 0: r probes an empty window
        "j.__p0.1.0__/j.out",  # event 1: l joins it
        ack_stream(STAGE, 0),
    ]
    assert stage.held_events() == 0
