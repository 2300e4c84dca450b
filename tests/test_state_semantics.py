"""Tests pinning down operator-state semantics across migrations.

The paper argues operators cannot migrate *between* entities because
synopsis state is engine-internal (§3); *within* an entity the central
administration can hand state over.  Our implementation mirrors that:

* intra-entity redeploys reuse the same fragment objects, so window
  state survives;
* inter-entity re-homing rebuilds fragments from the spec, so state is
  lost (the price of loose coupling);
* a processor failure resets the state of the queries it ran (it lived
  on the dead node), and of no other query.
"""

from __future__ import annotations

from repro.engine.operators import WindowJoinOperator
from repro.streams.source import StreamSource
from tests.test_entity import build_entity
from repro.interest.predicates import StreamInterest
from repro.query.spec import JoinSpec, QuerySpec


def join_spec(stocks, query_id="jq"):
    s0, s1 = stocks.stream_ids()
    return QuerySpec(
        query_id=query_id,
        interests=(
            StreamInterest.on(s0, symbol=(0, 499)),
            StreamInterest.on(s1, symbol=(0, 499)),
        ),
        join=JoinSpec(attribute="symbol", window=30.0),
    )


def find_join(entity, query_id):
    for op in entity.hosted[query_id].plan.operators:
        if isinstance(op, WindowJoinOperator):
            return op
    raise AssertionError("no join operator")


def test_intra_entity_redeploy_preserves_window_state(stocks):
    sim, net, entity = build_entity(stocks, procs=3)
    entity.host(join_spec(stocks))
    entity.deploy()
    source = StreamSource(sim, stocks.schemas()[0], poisson=False)
    source.subscribe(entity.receive)
    source.start()
    sim.run(until=1.0)
    join = find_join(entity, "jq")
    buffered = join.window_size(stocks.stream_ids()[0])
    assert buffered > 0
    # redeploy (e.g. after a placement decision): same fragments, state kept
    entity.deploy()
    assert find_join(entity, "jq") is join
    assert join.window_size(stocks.stream_ids()[0]) == buffered


def test_processor_failure_resets_window_state(stocks):
    """The join that ran on the dead processor restarts empty; a join
    colocated in the same entity but placed elsewhere keeps its window."""
    sim, net, entity = build_entity(stocks, procs=3)
    entity.host(join_spec(stocks, "jq"))
    entity.host(join_spec(stocks, "jk"))
    entity.deploy(distribution_limit=1)
    source = StreamSource(sim, stocks.schemas()[0], poisson=False)
    source.subscribe(entity.receive)
    source.start()
    sim.run(until=1.0)
    stream = stocks.stream_ids()[0]
    touched, kept = find_join(entity, "jq"), find_join(entity, "jk")
    buffered = kept.window_size(stream)
    assert touched.window_size(stream) > 0 and buffered > 0
    (victim,) = set(entity.hosted["jq"].chain_procs)
    assert victim not in entity.hosted["jk"].chain_procs
    entity.processor_failed(victim)
    assert touched.window_size(stream) == 0
    assert kept.window_size(stream) == buffered


def test_inter_entity_rehoming_rebuilds_fragments():
    from repro.core.system import FederatedSystem, SystemConfig
    from repro.streams.catalog import stock_catalog

    catalog = stock_catalog(exchanges=2, rate=60.0)
    system = FederatedSystem(
        catalog,
        SystemConfig(entity_count=3, processors_per_entity=2, seed=2),
    )
    system.submit([join_spec(catalog, "jq")])
    home = system.allocation_result.assignment["jq"]
    old_plan = system.entities[home].hosted["jq"].plan
    system.run(1.0)
    system.remove_entity(home)
    new_home = system.allocation_result.assignment["jq"]
    assert new_home != home
    new_plan = system.entities[new_home].hosted["jq"].plan
    # loose coupling: a fresh plan compiled from the spec, not the old
    # engine-internal state
    assert new_plan is not old_plan
    join = next(
        op
        for op in new_plan.operators
        if isinstance(op, WindowJoinOperator)
    )
    assert join.window_size(catalog.stream_ids()[0]) == 0
