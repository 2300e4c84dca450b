"""Tests for intra-entity processor failure handling.

A processor failure is an in-place edit of the entity's hosting model
(``Entity.processor_failed``): its streams fail over, its fragments
move to one survivor, the queries it ran restart their state, and the
caller re-derives the wiring.  Nothing is redeployed.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.system import FederatedSystem
from repro.interest.predicates import StreamInterest
from repro.query.spec import QuerySpec
from repro.streams.source import StreamSource
from repro.workloads import sharing_workload
from tests.test_entity import build_entity, spec


def fail(entity, proc_id):
    """The processor edit followed by the re-derivation its caller owes
    (``FederatedSystem.settle`` in a federation)."""
    entity.processor_failed(proc_id)
    entity.rewire()


def on_stream(stream_id, query_id):
    return QuerySpec(
        query_id=query_id,
        interests=(StreamInterest.on(stream_id, price=(0.0, 500.0)),),
    )


def test_processor_failure_moves_fragments_to_survivors(stocks):
    sim, net, entity = build_entity(stocks, procs=3)
    for i in range(4):
        entity.host(spec(stocks, f"q{i}"))
    entity.deploy(placer="pr", distribution_limit=2)
    victim = sorted(entity.processors)[0]
    fail(entity, victim)
    assert victim not in entity.processors
    # every fragment now lives on a surviving processor
    for hosted in entity.hosted.values():
        for proc in hosted.chain_procs:
            assert proc in entity.processors


def test_results_continue_after_processor_failure(stocks):
    sim, net, entity = build_entity(stocks, procs=3)
    entity.host(spec(stocks, "q0", lo=0, hi=1000))
    entity.deploy()
    results = []
    entity.result_handler = lambda qid, tup: results.append(qid)
    source = StreamSource(sim, stocks.schemas()[0], poisson=False)
    source.subscribe(entity.receive)
    source.start()
    sim.run(until=1.0)
    before = len(results)
    assert before > 0
    victim = entity.hosted["q0"].chain_procs[0]
    fail(entity, victim)
    sim.run(until=3.0)
    assert len(results) > before


def test_output_of_the_item_in_service_at_the_crash_is_dropped(stocks):
    """A dead processor still finishes the item it was serving; the
    co-located hop of that item's outputs must find no engine, not raise."""
    sim, net, entity = build_entity(stocks, procs=3)
    entity.host(spec(stocks, "q0", lo=0, hi=1000))
    entity.deploy()
    results = []
    entity.result_handler = lambda qid, tup: results.append(qid)
    source = StreamSource(sim, stocks.schemas()[0], poisson=False)
    probe = []
    source.subscribe(probe.append)
    source.start()
    sim.run(until=0.1)
    victim = entity.hosted["q0"].chain_procs[0]
    head = entity.hosted["q0"].fragments[0].fragment_id
    fail(entity, victim)
    entity._hop(victim, victim, head, probe[0])
    sim.run(until=0.2)
    assert results == []


def test_delegation_avoids_dead_processor(stocks):
    sim, net, entity = build_entity(stocks, procs=3)
    entity.host(spec(stocks, "q0"))
    entity.deploy()
    victim = sorted(entity.processors)[0]
    fail(entity, victim)
    stream = stocks.stream_ids()[0]
    assert entity.delegation.delegate_of(stream) in entity.processors


def test_delegation_moves_only_the_dead_processors_streams_in_place(stocks):
    """Gateways hold the entity's scheme: the failure edits that object,
    and only the dead processor's streams change delegate."""
    sim, net, entity = build_entity(stocks, procs=3)
    s0, s1 = stocks.stream_ids()
    entity.host(spec(stocks, "q0"))
    entity.host(on_stream(s1, "q1"))
    entity.deploy()
    scheme = entity.delegation
    before = {s: scheme.delegate_of(s) for s in (s0, s1)}
    assert before[s0] != before[s1]
    victim = before[s0]
    fail(entity, victim)
    assert entity.delegation is scheme
    assert scheme.delegate_of(s0) != victim
    assert scheme.delegate_of(s1) == before[s1]


def test_unknown_processor_raises(stocks):
    __, __, entity = build_entity(stocks)
    with pytest.raises(KeyError):
        entity.processor_failed("ghost")


def test_last_processor_failure_raises(stocks):
    __, __, entity = build_entity(stocks, procs=1)
    only = next(iter(entity.processors))
    with pytest.raises(RuntimeError):
        entity.processor_failed(only)


def test_fragments_that_shared_a_processor_still_share_one(stocks):
    """The dead processor's fragments all move to one survivor, and no
    other fragment moves: queries placed whole on one processor stay
    whole."""
    sim, net, entity = build_entity(stocks, procs=4)
    for i in range(4):
        entity.host(spec(stocks, f"q{i}"))
    entity.deploy(placer="pr", distribution_limit=1)
    before = {q: list(h.chain_procs) for q, h in entity.hosted.items()}
    victim = sorted(entity.processors)[0]
    fail(entity, victim)
    home = sorted(entity.processors)[0]
    for query_id, hosted in entity.hosted.items():
        assert len(set(hosted.chain_procs)) == 1
        assert hosted.chain_procs == [
            home if proc == victim else proc for proc in before[query_id]
        ]


def test_a_failure_edit_moves_only_the_dead_processors_fragments():
    """``FederatedSystem.edit(failed=[proc])`` on a shared plan: the dead
    processor's fragments — prefixes and taps alike — go to the first
    survivor, and nothing else moves.  A crash is no quiescent point, so
    the edit re-shares nothing (a re-share would re-place the taps of
    groups the crash did not touch)."""
    catalog, config, queries = sharing_workload(1)
    system = FederatedSystem(catalog, replace(config, processors_per_entity=4))
    system.submit(queries)
    entity = system.entities["entity-0"]
    victim = sorted(entity.processors)[1]
    before = {q: list(h.chain_procs) for q, h in entity.hosted.items()}
    prefixes = {g: d.shared_proc for g, d in entity.shared.items()}
    assert any(victim in procs for procs in before.values())
    assert system.edit(failed=[victim]) == ["entity-0"]
    home = sorted(entity.processors)[0]

    def moved(proc):
        return home if proc == victim else proc

    assert {
        q: h.chain_procs for q, h in entity.hosted.items()
    } == {q: [moved(p) for p in procs] for q, procs in before.items()}
    assert {g: d.shared_proc for g, d in entity.shared.items()} == {
        g: moved(p) for g, p in prefixes.items()
    }
