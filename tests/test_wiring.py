"""One wiring value per entity, interpreted by sim and live alike.

``derive_wiring`` maps an entity's hosting model to its complete wiring;
the simulator and the live runtime must both be wired from exactly that
value, for every edge kind at once — a plain chain, a partition-parallel
query and a shared group in one federation — and the ``wiring`` audit
must notice a model edit that was not followed by a re-derivation.
"""

from __future__ import annotations

import pytest

from repro.analysis.invariants import audit_federation
from repro.core.system import SystemConfig
from repro.core.wiring import (
    ToFragment,
    ToPartitions,
    ToResult,
    ToTaps,
    derive_wiring,
)
from repro.interest.predicates import StreamInterest
from repro.live import LiveRuntime, LiveSettings
from repro.query.spec import AggregateSpec, QuerySpec
from repro.streams.catalog import stock_catalog


@pytest.fixture(scope="module")
def runtime():
    catalog = stock_catalog(exchanges=2, rate=40.0)
    config = SystemConfig(
        entity_count=2,
        processors_per_entity=3,
        seed=3,
        partition_parallelism=2,
        shared_execution=True,
    )

    def on(stream, lo, hi):
        return (StreamInterest.on(stream, price=(lo, hi)),)

    queries = [
        # partition-parallel: a grouped aggregate
        QuerySpec(
            query_id="agg",
            interests=on("exchange-0.trades", 50.0, 900.0),
            aggregate=AggregateSpec(
                attribute="price", fn="sum", window=0.25, group_by="symbol"
            ),
        ),
        # a shared group: identical leading filter, private projections
        *(
            QuerySpec(
                query_id=f"ov{i}",
                interests=on("exchange-1.trades", 100.0, 600.0),
                project=project,
            )
            for i, project in enumerate(
                (None, ("price",), ("price", "symbol"))
            )
        ),
        # a plain chain nothing else overlaps with
        QuerySpec(
            query_id="lone", interests=on("exchange-0.trades", 700.0, 800.0)
        ),
    ]
    runtime = LiveRuntime(catalog, config, LiveSettings(duration=1.0))
    runtime.submit(queries)
    runtime.run()
    return runtime


def test_sim_and_live_are_wired_from_the_identical_value(runtime):
    planner, flow = runtime.planner, runtime.dataflow
    edge_kinds = set()
    for entity_id, entity in planner.entities.items():
        wiring = derive_wiring(entity)
        # sim: the value deploy() interpreted, installed engine by engine
        assert entity.wiring == wiring
        for proc_id, engine in entity.engines.items():
            assert set(engine.fragment_ids) == set(wiring.fragments[proc_id])
        # live: the tables every processor task executes from
        for proc_id in entity.processors:
            task = flow.processors[(entity_id, proc_id)]
            assert task.fragments == wiring.fragments[proc_id]
            assert task.downstream == wiring.downstream[proc_id]
            assert task.head_routes == wiring.head_routes
            edge_kinds.update(map(type, task.downstream.values()))
    # the federation really contained all three layouts
    hosted = [
        h for entity in planner.entities.values() for h in entity.hosted.values()
    ]
    assert any(h.partition is not None for h in hosted)
    assert any(h.shared_group is not None for h in hosted)
    assert any(h.partition is None and h.shared_group is None for h in hosted)
    assert edge_kinds == {ToFragment, ToPartitions, ToTaps, ToResult}
    assert runtime.results
    assert audit_federation(planner, dataflow=flow) == []


def test_audit_flags_a_model_edit_without_rederivation(runtime):
    planner, flow = runtime.planner, runtime.dataflow
    entity = next(e for e in planner.entities.values() if "lone" in e.hosted)
    hosted = entity.hosted["lone"]
    placed = list(hosted.chain_procs)
    hosted.chain_procs = [
        next(p for p in sorted(entity.processors) if p != placed[0]),
        *placed[1:],
    ]
    try:
        violations = audit_federation(planner, dataflow=flow)
        assert violations and {v.check for v in violations} == {"wiring"}
        flow.rewire(entity)
        assert audit_federation(planner, dataflow=flow) == []
    finally:
        hosted.chain_procs = placed
        flow.rewire(entity)
