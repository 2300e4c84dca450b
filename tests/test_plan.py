"""Tests for query plans, the cost model, and fragmentation."""

from __future__ import annotations

import pytest

from repro.engine.operators import FilterOperator, MapOperator
from repro.engine.plan import Fragment, QueryPlan
from repro.interest.predicates import StreamInterest
from repro.streams.tuples import StreamTuple


def make_ops(n=4, sel=0.5, cost=1e-4):
    ops = []
    for i in range(n):
        op = MapOperator(f"op{i}", lambda t: t, cost_per_tuple=cost)
        op.estimated_selectivity = sel
        ops.append(op)
    return ops


def make_plan(n=4, sel=0.5, cost=1e-4):
    return QueryPlan("q", ["s"], make_ops(n, sel, cost))


def tup(**values):
    return StreamTuple(
        stream_id="s",
        seq=0,
        created_at=0.0,
        values=values or {"x": 1.0},
        size=64.0,
    )


# ----------------------------------------------------------------------
# Construction and cost model
# ----------------------------------------------------------------------
def test_plan_requires_operators_and_streams():
    with pytest.raises(ValueError):
        QueryPlan("q", ["s"], [])
    with pytest.raises(ValueError):
        QueryPlan("q", [], make_ops(1))


def test_plan_rejects_duplicate_operator_names():
    op = MapOperator("same", lambda t: t)
    op2 = MapOperator("same", lambda t: t)
    with pytest.raises(ValueError):
        QueryPlan("q", ["s"], [op, op2])


def test_cost_per_input_tuple_discounts_downstream():
    plan = make_plan(n=2, sel=0.5, cost=1e-4)
    # op0 full cost + op1 at 0.5 selectivity
    assert plan.cost_per_input_tuple() == pytest.approx(1e-4 + 0.5e-4)


def test_output_selectivity_is_product():
    plan = make_plan(n=3, sel=0.5)
    assert plan.output_selectivity() == pytest.approx(0.125)


def test_estimated_load_scales_with_rate():
    plan = make_plan(n=1, sel=1.0, cost=1e-3)
    assert plan.estimated_load(100.0) == pytest.approx(0.1)


# ----------------------------------------------------------------------
# Fragmentation
# ----------------------------------------------------------------------
def test_split_empty_cuts_gives_one_fragment():
    plan = make_plan(4)
    fragments = plan.split([])
    assert len(fragments) == 1
    assert len(fragments[0].operators) == 4


def test_split_at_boundaries():
    plan = make_plan(4)
    fragments = plan.split([1])
    assert [len(f.operators) for f in fragments] == [2, 2]
    assert fragments[0].fragment_id == "q#f0"
    assert fragments[1].fragment_id == "q#f1"
    assert fragments[0].index == 0


def test_split_multiple_cuts():
    plan = make_plan(5)
    fragments = plan.split([0, 2])
    assert [len(f.operators) for f in fragments] == [1, 2, 2]


def test_split_out_of_range_cut_raises():
    plan = make_plan(3)
    with pytest.raises(ValueError):
        plan.split([2])  # last valid cut index is 1
    with pytest.raises(ValueError):
        plan.split([-1])


def test_fragment_cost_and_selectivity_compose():
    plan = make_plan(4, sel=0.5, cost=1e-4)
    fragments = plan.split([1])
    whole = plan.cost_per_input_tuple()
    f0, f1 = fragments
    composed = f0.cost_per_input_tuple() + f0.selectivity() * (
        f1.cost_per_input_tuple()
    )
    assert composed == pytest.approx(whole)
    assert f0.selectivity() * f1.selectivity() == pytest.approx(
        plan.output_selectivity()
    )
    # a batch is charged its size times the per-input expectation
    assert f0.cost_for_batch([tup()] * 4) == pytest.approx(
        4 * f0.cost_per_input_tuple()
    )


def test_fragment_run_applies_chain():
    interest = StreamInterest.on("s", x=(0, 10))
    ops = [
        FilterOperator("f", interest),
        MapOperator("m", lambda t: t.with_values(x=t.value("x") + 1)),
    ]
    plan = QueryPlan("q", ["s"], ops)
    fragment = plan.as_single_fragment()
    out = fragment.run(tup(x=5.0), 0.0)
    assert out[0].value("x") == 6.0
    assert fragment.run(tup(x=50.0), 0.0) == []


def test_fragment_requires_operators():
    with pytest.raises(ValueError):
        Fragment(fragment_id="f", query_id="q", index=0, operators=[])


def test_fragment_reset_state_propagates():
    from repro.engine.operators import WindowJoinOperator

    join = WindowJoinOperator("j", "a", "b", "k")
    plan = QueryPlan("q", ["a", "b"], [join])
    fragment = plan.as_single_fragment()
    fragment.run(
        StreamTuple("a", 0, 0.0, {"k": 1.0}, 10.0), 0.0
    )
    fragment.reset_state()
    assert join.window_size("a") == 0
