"""Tests for the engine executor: CPU charging and downstream wiring."""

from __future__ import annotations

import pytest

from repro.engine.executor import LocalEngine
from repro.engine.operators import FilterOperator, MapOperator
from repro.engine.plan import QueryPlan
from repro.interest.predicates import StreamInterest
from repro.simulation.processor import SimProcessor
from repro.streams.tuples import StreamTuple


def make_engine(sim, speed=1.0):
    proc = SimProcessor(sim, "p0", speed=speed)
    return LocalEngine(sim, proc), proc


def make_fragment(cost=0.1, name="q"):
    op = MapOperator(f"{name}.m", lambda t: t, cost_per_tuple=cost)
    return QueryPlan(name, ["s"], [op]).as_single_fragment()


def tup(seq=0, **values):
    return StreamTuple(
        stream_id="s",
        seq=seq,
        created_at=0.0,
        values=values or {"x": 1.0},
        size=64.0,
    )


def test_install_and_ingest_delivers_downstream(sim):
    engine, __ = make_engine(sim)
    fragment = make_fragment()
    got = []
    engine.install(fragment, downstream=got.append)
    engine.ingest(fragment.fragment_id, tup())
    sim.run()
    assert len(got) == 1


def test_output_visible_only_after_cpu_service(sim):
    engine, __ = make_engine(sim)
    fragment = make_fragment(cost=0.5)
    times = []
    engine.install(fragment, downstream=lambda t: times.append(sim.now))
    engine.ingest(fragment.fragment_id, tup())
    sim.run()
    assert times == [pytest.approx(0.5)]


def test_queueing_delays_second_tuple(sim):
    engine, __ = make_engine(sim)
    fragment = make_fragment(cost=0.5)
    times = []
    engine.install(fragment, downstream=lambda t: times.append(sim.now))
    engine.ingest(fragment.fragment_id, tup(0))
    engine.ingest(fragment.fragment_id, tup(1))
    sim.run()
    assert times == [pytest.approx(0.5), pytest.approx(1.0)]


def test_unknown_fragment_is_ignored(sim):
    engine, proc = make_engine(sim)
    engine.ingest("ghost", tup())
    sim.run()
    assert proc.stats.completed == 0


def test_uninstall_stops_processing(sim):
    engine, __ = make_engine(sim)
    fragment = make_fragment()
    got = []
    engine.install(fragment, downstream=got.append)
    removed = engine.uninstall(fragment.fragment_id)
    assert removed is fragment
    engine.ingest(fragment.fragment_id, tup())
    sim.run()
    assert got == []


def test_dropped_tuple_produces_no_downstream_call(sim):
    engine, proc = make_engine(sim)
    interest = StreamInterest.on("s", x=(100, 200))
    op = FilterOperator("f", interest, cost_per_tuple=0.1)
    fragment = QueryPlan("q", ["s"], [op]).as_single_fragment()
    got = []
    engine.install(fragment, downstream=got.append)
    engine.ingest(fragment.fragment_id, tup(x=1.0))
    sim.run()
    assert got == []
    assert proc.stats.completed == 1  # the CPU was still charged


def test_per_tuple_downstream_override(sim):
    engine, __ = make_engine(sim)
    fragment = make_fragment()
    default_sink, override_sink = [], []
    engine.install(fragment, downstream=default_sink.append)
    engine.ingest(fragment.fragment_id, tup(0), downstream=override_sink.append)
    engine.ingest(fragment.fragment_id, tup(1))
    sim.run()
    assert len(override_sink) == 1
    assert len(default_sink) == 1


def test_estimated_load_sums_over_fragments(sim):
    engine, __ = make_engine(sim)
    f1 = make_fragment(cost=1e-3, name="q1")
    f2 = make_fragment(cost=2e-3, name="q2")
    engine.install(f1)
    engine.install(f2)
    load = engine.estimated_load(
        {f1.fragment_id: 10.0, f2.fragment_id: 10.0}
    )
    assert load == pytest.approx(0.03)


def test_runtime_counters(sim):
    engine, __ = make_engine(sim)
    fragment = make_fragment()
    engine.install(fragment, downstream=lambda t: None)
    engine.ingest(fragment.fragment_id, tup())
    sim.run()
    runtime = engine.runtime(fragment.fragment_id)
    assert runtime.tuples_in == 1
    assert runtime.tuples_out == 1
    assert runtime.busy_cost > 0
