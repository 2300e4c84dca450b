"""Tests for online query admission and withdrawal."""

from __future__ import annotations

import pytest

from repro.core.system import FederatedSystem, SystemConfig
from repro.interest.predicates import StreamInterest
from repro.query.generator import WorkloadConfig, generate_workload
from repro.query.spec import AggregateSpec, QuerySpec
from repro.streams.catalog import stock_catalog


@pytest.fixture
def world():
    catalog = stock_catalog(exchanges=2, rate=60.0)
    system = FederatedSystem(
        catalog,
        SystemConfig(entity_count=4, processors_per_entity=2, seed=5),
    )
    return catalog, system


def make_query(catalog, query_id, lo=0.0, hi=800.0, client=(0.5, 0.5)):
    stream = catalog.stream_ids()[0]
    return QuerySpec(
        query_id=query_id,
        interests=(StreamInterest.on(stream, price=(lo, hi)),),
        client_x=client[0],
        client_y=client[1],
    )


# ----------------------------------------------------------------------
# Online admission
# ----------------------------------------------------------------------
def test_submit_one_routes_and_runs(world):
    catalog, system = world
    entity_id = system.submit_one(make_query(catalog, "q0"))
    assert entity_id in system.entities
    assert "q0" in system.entities[entity_id].hosted
    report = system.run(3.0)
    assert report.results > 0
    assert system.tracker.pr("q0") is not None


def test_submit_one_duplicate_rejected(world):
    catalog, system = world
    system.submit_one(make_query(catalog, "q0"))
    with pytest.raises(ValueError):
        system.submit_one(make_query(catalog, "q0"))


def test_online_admissions_spread_by_router(world):
    catalog, system = world
    # clients scattered over the plane route to different (nearby) entities
    homes = {
        system.submit_one(
            make_query(
                catalog, f"q{i}", client=((i % 4) / 3.0, (i // 4) / 3.0)
            )
        )
        for i in range(12)
    }
    assert len(homes) > 1


def test_submit_one_after_batch(world):
    catalog, system = world
    workload = generate_workload(
        catalog, WorkloadConfig(query_count=10, join_fraction=0.0), seed=5
    )
    system.submit(workload.queries)
    system.submit_one(make_query(catalog, "late"))
    report = system.run(3.0)
    assert report.queries_total == 11
    assert system.tracker.pr("late") is not None


def test_submit_over_time(world):
    catalog, system = world
    timed = [
        (0.5, make_query(catalog, "a")),
        (1.5, make_query(catalog, "b")),
    ]
    system.submit_over_time(timed)
    assert not system._query_index  # nothing admitted yet
    system.run(1.0)
    assert "a" in system._query_index
    assert "b" not in system._query_index
    system.run(2.0)
    assert "b" in system._query_index


# ----------------------------------------------------------------------
# Withdrawal
# ----------------------------------------------------------------------
def test_withdraw_stops_results(world):
    catalog, system = world
    system.submit_one(make_query(catalog, "q0"))
    system.run(2.0)
    before = system.tracker.total_results
    assert before > 0
    system.withdraw("q0")
    system.run(0.3)  # drain in-flight
    settled = system.tracker.total_results
    system.run(3.0)
    assert system.tracker.total_results == settled
    assert "q0" not in system._query_index


def test_withdraw_unknown_raises(world):
    catalog, system = world
    with pytest.raises(KeyError):
        system.withdraw("ghost")


def test_withdraw_narrows_dissemination(world):
    catalog, system = world
    stream = catalog.stream_ids()[0]
    system.submit_one(make_query(catalog, "narrow", lo=0.0, hi=10.0))
    system.submit_one(make_query(catalog, "wide", lo=0.0, hi=1000.0))
    tree = system.dissemination[stream].tree
    entity = system.allocation_result.assignment["wide"]
    assert tree.needs_tuple(entity, {"price": 900.0})
    system.withdraw("wide")
    tree = system.dissemination[stream].tree
    remaining = system.allocation_result.assignment["narrow"]
    assert not tree.needs_tuple(remaining, {"price": 900.0})
    assert tree.needs_tuple(remaining, {"price": 5.0})


def test_withdraw_keeps_other_queries_running(world):
    catalog, system = world
    system.submit_one(make_query(catalog, "keep"))
    system.submit_one(make_query(catalog, "drop"))
    system.run(1.0)
    system.withdraw("drop")
    before = system.tracker._delay_count.get("keep", 0)
    system.run(2.0)
    assert system.tracker._delay_count.get("keep", 0) > before


# ----------------------------------------------------------------------
# An edit keeps the colocated queries' state
# ----------------------------------------------------------------------
def aggregate_results(changes):
    """A partitioned grouped aggregate's results over 4 s on a
    one-entity federation, with ``changes(system)`` scheduled beside
    it; its 2 s windows are open across every change."""
    catalog = stock_catalog(exchanges=1, rate=60.0)
    system = FederatedSystem(
        catalog,
        SystemConfig(
            entity_count=1,
            processors_per_entity=3,
            seed=5,
            partition_parallelism=2,
        ),
    )
    stream = catalog.stream_ids()[0]
    system.submit(
        [
            QuerySpec(
                query_id="agg",
                interests=(StreamInterest.on(stream, price=(0.0, 1000.0)),),
                aggregate=AggregateSpec(
                    attribute="price", fn="sum", window=2.0, group_by="symbol"
                ),
            ),
            make_query(catalog, "sel"),
        ]
    )
    (entity,) = system.entities.values()
    assert entity.hosted["agg"].partition is not None
    results = system.collect_results()
    changes(system)
    system.run(4.0)
    system.sim.run()  # drain in-flight tuples
    return [
        (tup.stream_id, tup.seq, sorted(tup.values.items()))
        for tup in results["agg"]
    ]


def test_colocated_window_survives_sim_submit_one():
    catalog = stock_catalog(exchanges=1, rate=60.0)

    def arrival(system):
        system.sim.schedule_at(
            1.0, lambda: system.submit_one(make_query(catalog, "late"))
        )

    static = aggregate_results(lambda system: None)
    assert static
    assert aggregate_results(arrival) == static


def test_colocated_window_survives_sim_withdraw():
    def departure(system):
        system.sim.schedule_at(1.0, lambda: system.withdraw("sel"))

    static = aggregate_results(lambda system: None)
    assert static
    assert aggregate_results(departure) == static
