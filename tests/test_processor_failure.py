"""Tests for intra-entity processor failure handling."""

from __future__ import annotations

import pytest

from repro.streams.source import StreamSource
from tests.test_entity import build_entity, spec


def test_processor_failure_redeploys(stocks):
    sim, net, entity = build_entity(stocks, procs=3)
    for i in range(4):
        entity.host(spec(stocks, f"q{i}"))
    entity.deploy(placer="pr", distribution_limit=2)
    victim = sorted(entity.processors)[0]
    entity.processor_failed(victim)
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
    entity.processor_failed(victim)
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
    entity.processor_failed(victim)
    entity._hop(victim, victim, head, probe[0])
    sim.run(until=0.2)
    assert results == []


def test_delegation_avoids_dead_processor(stocks):
    sim, net, entity = build_entity(stocks, procs=3)
    entity.host(spec(stocks, "q0"))
    entity.deploy()
    victim = sorted(entity.processors)[0]
    entity.processor_failed(victim)
    stream = stocks.stream_ids()[0]
    assert entity.delegation.delegate_of(stream) in entity.processors


def test_unknown_processor_raises(stocks):
    __, __, entity = build_entity(stocks)
    with pytest.raises(KeyError):
        entity.processor_failed("ghost")


def test_last_processor_failure_raises(stocks):
    __, __, entity = build_entity(stocks, procs=1)
    only = next(iter(entity.processors))
    with pytest.raises(RuntimeError):
        entity.processor_failed(only)


def test_redeploy_reuses_last_placement_settings(stocks):
    sim, net, entity = build_entity(stocks, procs=4)
    for i in range(4):
        entity.host(spec(stocks, f"q{i}"))
    entity.deploy(placer="pr", distribution_limit=1)
    victim = sorted(entity.processors)[0]
    entity.processor_failed(victim)
    # the remembered distribution limit of 1 still applies
    for hosted in entity.hosted.values():
        assert len(set(hosted.chain_procs)) == 1
