"""Property tests: operator kernels are cut-invariant.

Every operator implements one kernel, ``process_batch(batch, now)``; a
single tuple is a batch of one.  The dataplane's correctness contract is
that outputs and operator state depend only on the tuple sequence and
the clock each tuple is processed under — never on where the sequence is
cut into batches.  That includes *stateful* operators, whose windows
must expire and flush tuple by tuple inside the kernel's loop (a join
that expired once per batch is the bug this suite caught).

Hypothesis draws a random tuple sequence (non-decreasing ``created_at``,
mixed streams, shared join/group keys) as a list of *arrival rounds* —
runs of tuples that reach the operator under one reading of the
processing clock, which ``WindowJoinOperator`` and ``DriftingFilter``
read — plus two independent cuttings of it, each a refinement of the
rounds and each either all-singletons or random.  Two fresh instances
run one cutting each; outputs and statistics must match exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.operators import FilterOperator, WindowJoinOperator
from repro.engine.operators.aggregate import WindowAggregateOperator
from repro.engine.operators.base import Operator
from repro.engine.operators.distinct import DistinctOperator
from repro.engine.operators.mapop import MapOperator
from repro.engine.operators.project import ProjectOperator
from repro.engine.operators.sample import SampleOperator
from repro.engine.operators.sliding import SlidingAverageOperator
from repro.engine.operators.topk import TopKOperator
from repro.engine.operators.union import UnionOperator
from repro.engine.partition import PartitionSpec, PartitionedOperator
from repro.engine.plan import QueryPlan
from repro.engine.sharing import TapOperator
from repro.interest.predicates import StreamInterest
from repro.streams.tuples import StreamTuple
from repro.workloads.drifting import DriftingFilter, linear_drift

finite = st.floats(
    min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def _cut(draw, rounds):
    """One cutting of ``rounds``: ``(batch, now)`` pieces, in order.

    Pieces never straddle a round, so every tuple meets the same ``now``
    under every cutting; within a round the cut points are free.
    """
    singletons = draw(st.booleans())
    pieces = []
    for tuples in rounds:
        now = tuples[-1].created_at
        index = 0
        while index < len(tuples):
            size = 1 if singletons else draw(st.integers(1, 8))
            pieces.append((tuples[index : index + size], now))
            index += size
    return pieces


@st.composite
def two_cuttings(draw):
    """A random tuple sequence and two independent cuttings of it.

    ``created_at`` is non-decreasing across the whole sequence (sources
    emit in time order) and every round, hence every piece, is
    non-empty.
    """
    now = 0.0
    seq = 0
    rounds = []
    for size in draw(st.lists(st.integers(1, 8), max_size=6)):
        tuples = []
        for _ in range(size):
            now += draw(st.floats(min_value=0.0, max_value=3.0))
            tuples.append(
                StreamTuple(
                    draw(st.sampled_from(["a", "b"])),
                    seq,
                    now,
                    {"x": draw(finite), "k": float(draw(st.integers(0, 4)))},
                    64.0,
                )
            )
            seq += 1
        rounds.append(tuples)
    return _cut(draw, rounds), _cut(draw, rounds)


OPERATOR_FACTORIES = {
    "filter": lambda: FilterOperator(
        "f", StreamInterest.on("a", x=(25.0, 75.0))
    ),
    "filter_multi_attr": lambda: FilterOperator(
        "f", StreamInterest.on("a", x=(10.0, 90.0), k=(1.0, 3.0))
    ),
    "map_predicate": lambda: MapOperator(
        "m", lambda t: t if t.values["x"] < 60.0 else None
    ),
    "map_transform": lambda: MapOperator(
        "m", lambda t: t.with_values(y=t.values["x"] * 2.0)
    ),
    "project": lambda: ProjectOperator("p", ["x"]),
    "union": lambda: UnionOperator("u", ["a", "b"]),
    "sample": lambda: SampleOperator("s", 0.5),
    "distinct": lambda: DistinctOperator("d", "k", window=5.0),
    "sliding_average": lambda: SlidingAverageOperator("sl", "x", window=5.0),
    "aggregate_avg": lambda: WindowAggregateOperator(
        "agg", "x", fn="avg", window=5.0
    ),
    "aggregate_grouped_max": lambda: WindowAggregateOperator(
        "agg", "x", fn="max", window=5.0, group_by="k"
    ),
    "join": lambda: WindowJoinOperator(
        "j", "a", "b", "k", window=5.0, tolerance=0.5
    ),
    "topk": lambda: TopKOperator("t", "x", k=3, window=5.0),
    "partitioned_join": lambda: PartitionedOperator(
        WindowJoinOperator("j", "a", "b", "k", window=5.0),
        PartitionSpec(key="k", parts=3),
    ),
    "partitioned_aggregate": lambda: PartitionedOperator(
        WindowAggregateOperator(
            "agg", "x", fn="max", window=5.0, group_by="k"
        ),
        PartitionSpec(key="k", parts=3),
    ),
    "tap": lambda: TapOperator("tap", "q"),
    "tap_rename": lambda: TapOperator("tap", "q", {"a": "q.a"}),
    "drifting_filter": lambda: DriftingFilter(
        "df", linear_drift(0.1, 0.9, 30.0)
    ),
}


@pytest.mark.parametrize("kind", sorted(OPERATOR_FACTORIES))
@settings(max_examples=40, deadline=None)
@given(cuttings=two_cuttings())
def test_operator_batch_equals_per_tuple(kind, cuttings):
    """Every operator's outputs and stats ignore where batches are cut."""
    outputs = []
    stats = []
    for pieces in cuttings:
        operator = OPERATOR_FACTORIES[kind]()
        out = []
        for batch, now in pieces:
            out.extend(operator.apply_batch(batch, now))
        outputs.append(out)
        stats.append(operator.stats)
    assert outputs[0] == outputs[1]
    assert stats[0] == stats[1]


@settings(max_examples=30, deadline=None)
@given(cuttings=two_cuttings())
def test_fragment_run_batch_equals_run(cuttings):
    """Fused fragment pipelines are cut-invariant end to end.

    The chain mixes stateless (filter, map) and stateful (sliding
    average) operators, so batch-boundary placement must not leak into
    window state.  Singleton pieces go through ``Fragment.run`` — the
    simulator's entry point — so it is held to the same contract.
    """
    outputs = []
    stats = []
    for pieces in cuttings:
        fragment = QueryPlan(
            "q",
            ["a", "b"],
            [
                UnionOperator("u", ["a", "b"]),
                FilterOperator("f", StreamInterest.on("u.out", x=(5.0, 95.0))),
                SlidingAverageOperator("sl", "x", window=4.0),
                MapOperator(
                    "m", lambda t: t if t.values["x_avg"] < 80.0 else None
                ),
            ],
        ).as_single_fragment()
        out = []
        for batch, now in pieces:
            if len(batch) == 1:
                out.extend(fragment.run(batch[0], now))
            else:
                out.extend(fragment.run_batch(batch, now))
        outputs.append(out)
        stats.append([op.stats for op in fragment.operators])
    assert outputs[0] == outputs[1]
    assert stats[0] == stats[1]


def _operator_classes(base=Operator):
    for cls in base.__subclasses__():
        if cls.__module__.startswith("repro."):
            yield cls
        yield from _operator_classes(cls)


def test_operators_implement_only_the_batch_kernel():
    """No operator re-grows a per-tuple twin of its kernel.

    ``process`` / ``apply`` exist on the base class only, as a batch of
    one; every operator has its own ``process_batch``.  This module's
    imports load every module under ``src/`` that defines an operator
    (``repro.engine``, ``.partition``, ``.sharing``,
    ``repro.workloads.drifting``).
    """
    classes = set(_operator_classes())
    assert len(classes) >= 15
    for cls in classes:
        assert "process" not in vars(cls), cls
        assert "apply" not in vars(cls), cls
        assert cls.process_batch is not Operator.process_batch, cls
