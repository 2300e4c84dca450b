"""One pass selects for every head, bit-identical to per-head filtering.

A live processor evaluates the leading selection of every head fragment
it hosts on a stream in one generated pass (``compile_selector``), then
runs each head's remaining operators on its kept-list.  Two contracts:

* **the selector** — ``select(batch)[i]`` is exactly ``[t for t in
  batch if interests[i].matches_values(t.values)]``: same tuple
  objects, same order, whatever the constraints (single, multi-interval,
  empty), duplicates and the odd values (absent, ``None``, NaN, ±inf,
  ``1`` vs ``1.0``, bounds hit exactly);
* **the processor** — intake leaves the same trace as running each
  head's own ``Fragment.run_batch`` in hosting order: the same hops, the
  same operator statistics, the same busy cost to the last bit, across
  bare filters, a join head fed by its second stream, a partition-stage
  head, a shared prefix, a quota cutting a head to a prefix and a
  rewire between batches.
"""

from __future__ import annotations

import asyncio
import copy
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.quotas import TenantThrottle
from repro.core.wiring import ToFragment, ToPartitions, ToResult, ToTaps
from repro.engine.operators.filterop import FilterOperator
from repro.engine.operators.join import WindowJoinOperator
from repro.engine.operators.project import ProjectOperator
from repro.engine.partition import (
    AGGREGATE_STAGE,
    PartitionRouter,
    PartitionSpec,
    PartitionStageOperator,
)
from repro.engine.plan import Fragment
from repro.engine.sharing import SharedFragment
from repro.interest.compiled import compile_selector
from repro.interest.predicates import Interval, IntervalSet, StreamInterest
from repro.live import LiveProcessor
from repro.live.entity_task import RELAY, _runs
from repro.live.metrics import LiveMetrics
from repro.streams.tuples import StreamTuple

ATTRS = ("p", "q", "r")
BOUNDS = (-2, -1, 0, 1, 2, 3)


# ----------------------------------------------------------------------
# The selector against matches_values
# ----------------------------------------------------------------------
@st.composite
def interval_sets(draw):
    """Empty, single- or multi-interval sets over small int/float bounds."""
    kind = draw(st.sampled_from(["empty", "single", "multi"]))
    if kind == "empty":
        return IntervalSet()
    count = 1 if kind == "single" else draw(st.integers(2, 3))
    intervals = []
    for __ in range(count):
        lo, hi = sorted(draw(st.lists(st.sampled_from(BOUNDS), min_size=2, max_size=2)))
        as_float = draw(st.booleans())
        intervals.append(Interval(float(lo), hi) if as_float else Interval(lo, hi))
    return IntervalSet(intervals)


@st.composite
def interests(draw):
    stream = draw(st.sampled_from(["s", "s", "s", "other"]))
    names = draw(st.lists(st.sampled_from(ATTRS), max_size=3, unique=True))
    return StreamInterest(stream, {name: draw(interval_sets()) for name in names})


@st.composite
def interest_lists(draw):
    """0–8 interests, some of them repeats of earlier ones."""
    picked = draw(st.lists(interests(), max_size=8))
    for index in range(len(picked)):
        if index and draw(st.integers(0, 3)) == 0:
            picked[index] = picked[draw(st.integers(0, index - 1))]
    return picked


ODD = (None, math.nan, math.inf, -math.inf)
values = (
    st.sampled_from(BOUNDS)
    | st.sampled_from(BOUNDS).map(float)
    | st.sampled_from(ODD)
    | st.floats(-3, 4)
)


@st.composite
def batches(draw):
    rows = draw(
        st.lists(st.dictionaries(st.sampled_from((*ATTRS, "x")), values), max_size=12)
    )
    return [StreamTuple("s", seq, 0.0, row, 64.0) for seq, row in enumerate(rows)]


@settings(max_examples=300, deadline=None)
@given(picked=interest_lists(), batch=batches())
def test_selector_keeps_what_each_interest_matches(picked, batch):
    kept = compile_selector(picked)(batch)
    assert len(kept) == len(picked)
    for interest, mine in zip(picked, kept):
        expected = [t for t in batch if interest.matches_values(t.values)]
        assert len(mine) == len(expected)
        assert all(a is b for a, b in zip(mine, expected))


def test_selector_shares_one_list_between_equal_interests():
    same = StreamInterest.on("s", p=(0, 1))
    select = compile_selector([same, StreamInterest.on("s", p=(0, 1)), same])
    first, second, third = select([StreamTuple("s", 0, 0.0, {"p": 0.5}, 8.0)])
    assert first is second is third
    assert compile_selector([same, same, same]) is select


# ----------------------------------------------------------------------
# The processor against each head's own run_batch
# ----------------------------------------------------------------------
class Clock:
    now = 0.0


class RecordingSender:
    """Stands in for a ``Sender``: logs every item, never fills."""

    def __init__(self, dest, log):
        self.dest, self.log = dest, log

    def add_many(self, items):
        self.log.extend((self.dest, target, tup) for target, tup in items)
        return []


def filt(name, stream="s", **ranges):
    return FilterOperator(name, StreamInterest.on(stream, **ranges))


def build_tables():
    """Processor ``a``'s fragments and out-edges, and the entity's head
    routes (``b`` hosts heads too): every kind of head at once."""
    router = PartitionRouter(
        "agg", PartitionSpec("sym", 2), kind=AGGREGATE_STAGE,
        key_attribute="sym", group_by="sym", window=0.25,
    )
    fragments = {
        "bare1": Fragment("bare1", "q1", 0, [filt("f1", p=(0, 40))]),
        # the same selection as bare1, on another query
        "bare2": Fragment("bare2", "q2", 0, [filt("f2", p=(0, 40))]),
        "multi": Fragment(
            "multi", "q3", 0,
            [filt("f3", p=(20, 80), q=(0, 5)), ProjectOperator("pr3", ["p"])],
        ),
        "join": Fragment(
            "join", "q4", 0,
            [
                filt("f4s", p=(10, 90)),
                filt("f4t", stream="t", q=(0, 6)),
                WindowJoinOperator("j4", "s", "t", "sym", window=2.0),
            ],
        ),
        "pstage": Fragment(
            "pstage", "q5", 0,
            [PartitionStageOperator(ProjectOperator("pp5", ["p"]), 0, 2)],
        ),
        "router": Fragment(
            "router", "q6", 0,
            [filt("f6", q=(2, 9)), ProjectOperator("pr6", ["q", "sym"])],
        ),
        "g": SharedFragment(
            "g", "g", 0, [filt("fg", p=(30, 70))], members=("q7", "q8")
        ),
        "tap7": Fragment("tap7", "q7", 1, [ProjectOperator("pr7", ["p"])]),
        "sink": Fragment("sink", "q9", 1, [filt("f9", p=(0, 60))]),
    }
    downstream = {
        "bare1": ToResult("q1"),
        "bare2": ToFragment("a", "sink"),
        "multi": ToFragment("b", "multi#f1"),
        "join": ToResult("q4"),
        "pstage": ToResult("q5"),
        "router": ToPartitions(
            router, {0: ("a", "r0"), 1: ("b", "r1"), "merge": ("b", "m")}
        ),
        "g": ToTaps((("a", "tap7"), ("b", "tap8"))),
        "tap7": ToResult("q7"),
        "sink": ToResult("q9"),
    }
    head_routes = {
        "s": [
            ("bare1", "a"), ("remote1", "b"), ("multi", "a"), ("join", "a"),
            ("bare2", "a"), ("remote2", "b"), ("pstage", "a"),
            ("router", "a"), ("g", "a"), ("remote3", "c"),
        ],
        "t": [("join", "a"), ("remote4", "c")],
    }
    return fragments, downstream, head_routes


def make_processor(fragments, downstream, head_routes, log, throttle):
    proc = LiveProcessor(
        "e", "a", None, head_routes, {}, None, None, None, LiveMetrics(), Clock(),
        throttle=throttle,
    )
    proc._senders = {dest: RecordingSender(dest, log) for dest in ("b", "c", None)}
    proc.fragments.update(fragments)
    proc.downstream.update(downstream)
    return proc


def per_head_intake(proc):
    """Each head runs its own ``Fragment.run_batch`` in hosting order;
    the delegate relays once per processor, at its first head."""

    async def intake(run, *, relay):
        streams = [tup.stream_id for tup in run]
        for stream_id, sub in _runs(streams, run):
            relayed = set()
            for head, host in proc.head_routes.get(stream_id, ()):
                if host != proc.proc_id:
                    if relay and host not in relayed:
                        relayed.add(host)
                        await proc._deliver([(host, RELAY, sub)])
                    continue
                admitted = (
                    sub
                    if proc.throttle is None
                    else proc.throttle.admit(head, sub, proc.clock.now)
                )
                if admitted:
                    await proc._deliver([(proc.proc_id, head, admitted)])

    return intake


def rewire(proc, extra_fragment):
    """Add a head, remove one, move one to ``b``, in place."""
    routes = proc.head_routes["s"]
    routes.remove(("bare2", "a"))
    routes[routes.index(("multi", "a"))] = ("multi", "b")
    routes.insert(1, ("late", "a"))
    for gone in ("bare2", "multi"):
        del proc.fragments[gone]
        del proc.downstream[gone]
    proc.fragments["late"] = extra_fragment
    proc.downstream["late"] = ToResult("q10")


def random_items(rng, count):
    items = []
    for seq in range(count):
        stream = "s" if rng.random() < 0.8 else "t"
        row = {
            "p": rng.choice([rng.uniform(0, 100), 40, 40.0, 10, None, math.nan]),
            "q": rng.choice([rng.uniform(0, 10), 2, 6.0, math.inf]),
            "sym": rng.randrange(4),
        }
        if rng.random() < 0.1:
            del row["p"]
        tup = StreamTuple(stream, seq, seq * 0.01, row, 64.0)
        items.append((None if rng.random() < 0.7 else RELAY, tup))
    return items


def operator_stats(fragments):
    return {
        fid: [
            (op.name, op.stats.tuples_in, op.stats.tuples_out)
            for op in frag.operators
        ]
        for fid, frag in fragments.items()
    }


@pytest.mark.parametrize("quota", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_intake_equals_per_head_run_batch(seed, quota):
    rng = random.Random(seed)
    fragments, downstream, head_routes = build_tables()
    late = Fragment("late", "q10", 0, [filt("f10", p=(0, 40))])
    # deep copies for the per-head side: same start, separate state
    twin_fragments, twin_downstream, twin_late = copy.deepcopy(
        (fragments, downstream, late)
    )

    def throttle():
        if not quota:
            return None
        made = TenantThrottle(60.0, {"ta": 1.0, "tb": 1.0})
        for head in ("bare1", "join", "late"):
            made.bind(head, "ta")
        return made

    sent, twin_sent = [], []
    proc = make_processor(
        fragments, downstream, copy.deepcopy(head_routes), sent, throttle()
    )
    proc.load_heads()
    twin = make_processor(
        twin_fragments,
        twin_downstream,
        copy.deepcopy(head_routes),
        twin_sent,
        throttle(),
    )
    twin._intake_batch = per_head_intake(twin)

    async def drive():
        for step in range(12):
            if step == 6:
                rewire(proc, late)
                proc.load_heads()
                rewire(twin, twin_late)
            items = random_items(rng, rng.randint(1, 24))
            for side in (proc, twin):
                side.clock.now = step * 0.1
                await side._execute_batch(items)

    asyncio.run(drive())
    assert sent == twin_sent
    assert len({dest for dest, __, __ in sent}) == 3
    assert operator_stats(proc.fragments) == operator_stats(twin.fragments)
    # the heads the rewire took away kept their statistics too
    gone = ("bare2", "multi")
    assert operator_stats({fid: fragments[fid] for fid in gone}) == (
        operator_stats({fid: twin_fragments[fid] for fid in gone})
    )
    assert proc.metrics.entity_busy_cost == twin.metrics.entity_busy_cost
    assert proc.metrics.query_busy_cost == twin.metrics.query_busy_cost
    if quota:
        throttled = proc.throttle
        assert throttled.total_shed > 0
        assert throttled.shed_by_tenant == twin.throttle.shed_by_tenant


def test_intake_selects_once_per_stream_run(monkeypatch):
    """Bare-filter heads no longer call ``Fragment.run_batch`` at all."""
    fragments, downstream, head_routes = build_tables()
    proc = make_processor(fragments, downstream, head_routes, [], None)
    proc.load_heads()
    ran = []
    monkeypatch.setattr(
        Fragment,
        "run_batch",
        lambda self, batch, now: ran.append(self.fragment_id) or [],
    )
    row = {"p": 5.0, "q": 1.0}
    items = [(None, StreamTuple("s", seq, 0.0, row, 8.0)) for seq in range(4)]
    asyncio.run(proc._execute_batch(items))
    # every head but pstage selects; sink is bare2's downstream
    assert ran == ["sink", "pstage"]
    assert fragments["bare1"].operators[0].stats.tuples_out == 4
