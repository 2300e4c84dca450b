"""Distributed runtime: placement, links, audits, credits and deltas.

Fast tests cover the pure pieces (placement maps, report merging, the
link/drain/ledger audits, credit-gate semantics) plus single-worker
federation runs — real subprocess, real sockets, no peer mesh.  That
the distributed leg returns the simulator's results, across workers,
is ``test_differential.py``'s claim; the slow four-worker run here
holds a shorter run to its oracle.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.system import FederatedSystem
from repro.distributed import (
    CreditGate,
    DistributedCoordinator,
    audit_distributed_run,
    cross_worker_links,
    merge_reports,
    place_entities,
    place_feeds,
)
from repro.live import LiveSettings
from repro.workloads import parity_workload
from tests.test_differential import assert_matches_reference

DURATION = 0.8


def make_coordinator(seed, workers, duration=DURATION, queries=None):
    catalog, config, planned = parity_workload(seed)
    return DistributedCoordinator(
        catalog,
        config,
        planned if queries is None else queries,
        LiveSettings(duration=duration, batch_size=4),
        workers=workers,
    )


def distributed_keys(coordinator):
    return {
        (query_id, tup.stream_id, tup.seq)
        for query_id, tups in coordinator.results.items()
        for tup in tups
    }


# ----------------------------------------------------------------------
# Placement (pure)
# ----------------------------------------------------------------------
def test_lpt_placement_balances_and_is_deterministic():
    loads = {"e0": 5.0, "e1": 4.0, "e2": 3.0, "e3": 3.0, "e4": 1.0}
    placed = place_entities(loads, 2)
    assert placed == place_entities(dict(reversed(loads.items())), 2)
    per_worker = [0.0, 0.0]
    for entity, worker in placed.items():
        per_worker[worker] += loads[entity]
    assert sorted(per_worker) == [8.0, 8.0]


def test_place_entities_single_worker_takes_all():
    placed = place_entities({"a": 1.0, "b": 2.0}, 1)
    assert set(placed.values()) == {0}


def test_place_feeds_round_robin_over_sorted_ids():
    placed = place_feeds(["s3", "s1", "s2"], 2)
    assert placed == {"s1": 0, "s2": 1, "s3": 0}


def test_cross_worker_links_cover_tree_edges():
    catalog, config, queries = parity_workload(7)
    planner = FederatedSystem(catalog, config)
    planner.submit(queries)
    entity_workers = {
        entity_id: index
        for index, entity_id in enumerate(sorted(planner.entities))
    }
    feed_workers = place_feeds(list(planner.sources), 4)
    links = cross_worker_links(planner, entity_workers, feed_workers)
    assert links  # one worker per entity forces cross-worker edges
    assert all(low < high for low, high in links)
    # co-locating everything dissolves every link
    all_on_zero = {entity_id: 0 for entity_id in planner.entities}
    feeds_on_zero = {stream_id: 0 for stream_id in planner.sources}
    assert cross_worker_links(planner, all_on_zero, feeds_on_zero) == set()


# ----------------------------------------------------------------------
# Report merging and audits (pure)
# ----------------------------------------------------------------------
def _report_dict(**overrides):
    base = {
        "duration": 1.0,
        "wall_seconds": 0.5,
        "tuples_ingested": 100,
        "tuples_delivered": 80,
        "results": 40,
        "mean_result_latency": 0.010,
        "p95_result_latency": 0.020,
        "negative_latency_samples": 0,
        "filtered_edges": 5,
        "forwarded_edges": 20,
        "batches_sent": 10,
        "tuples_sent": 80,
        "retries": 0,
        "dropped_batches": 0,
        "dropped_tuples": 0,
        "blocked_puts": 0,
        "entity_tuples": {"entity-0": 80},
        "entity_queue_depth": {"entity-0": 0},
        "entity_queue_high_water": {"entity-0": 3},
        "entity_cpu_seconds": {"entity-0": 0.1},
        "query_cpu_seconds": {"q0": 0.1},
        "entity_query_count": {"entity-0": 2},
        "results_by_query": {"q0": 40},
    }
    base.update(overrides)
    return base


def test_merge_reports_sums_disjoint_workers():
    second = _report_dict(
        results=20,
        mean_result_latency=0.040,
        p95_result_latency=0.050,
        entity_tuples={"entity-1": 30},
        entity_queue_depth={"entity-1": 0},
        entity_queue_high_water={"entity-1": 7},
        entity_cpu_seconds={"entity-1": 0.2},
        query_cpu_seconds={"q1": 0.2},
        entity_query_count={"entity-1": 1},
        results_by_query={"q1": 20},
    )
    merged = merge_reports(
        [_report_dict(), second], duration=1.0, wall_seconds=0.7
    )
    assert merged.results == 60
    assert merged.tuples_delivered == 160
    assert merged.tuples_sent == 160
    assert merged.mean_batch_size == 8.0
    assert merged.entity_tuples == {"entity-0": 80, "entity-1": 30}
    assert merged.entity_queue_high_water == {"entity-0": 3, "entity-1": 7}
    assert merged.results_by_query == {"q0": 40, "q1": 20}
    # result-weighted mean: (40*10ms + 20*40ms) / 60
    assert merged.mean_result_latency == pytest.approx(0.020)
    assert merged.p95_result_latency == 0.050
    assert merged.wall_seconds == 0.7


def _metrics(worker_id, *, peers, undrained=0, sent=0, received=0):
    return {
        "worker_id": worker_id,
        "peer_counts": peers,
        "undrained_frames": undrained,
        "sent": sent,
        "received": received,
    }


def test_audit_passes_on_consistent_run():
    metrics = {
        0: _metrics(0, peers={"1": 1}, sent=10),
        1: _metrics(1, peers={"0": 1}, received=10),
    }
    assert audit_distributed_run(
        required_links={(0, 1)}, worker_metrics=metrics
    ) == []


def test_audit_flags_missing_and_duplicate_links():
    metrics = {
        0: _metrics(0, peers={}),
        1: _metrics(1, peers={"0": 2}),
    }
    violations = audit_distributed_run(
        required_links={(0, 1)}, worker_metrics=metrics
    )
    rendered = "\n".join(v.render() for v in violations)
    assert "backed by 0 connections" in rendered
    assert "duplicate connections" in rendered


def test_audit_flags_undrained_frames_and_ledger_imbalance():
    metrics = {
        0: _metrics(0, peers={}, undrained=3, sent=12),
        1: _metrics(1, peers={}, received=9),
    }
    violations = audit_distributed_run(
        required_links=set(), worker_metrics=metrics
    )
    rendered = "\n".join(v.render() for v in violations)
    assert "3 frames undrained" in rendered
    assert "12 tuples sent" in rendered


# ----------------------------------------------------------------------
# Credit gate semantics
# ----------------------------------------------------------------------
def test_credit_gate_blocks_at_zero_and_resumes_on_release():
    async def scenario():
        gate = CreditGate(2)
        await gate.acquire(1)
        await gate.acquire(1)
        assert gate.available == 0 and gate.outstanding == 2
        assert gate.would_block()
        blocked = asyncio.create_task(gate.acquire(1))
        await asyncio.sleep(0)
        assert not blocked.done()
        await gate.release(1)
        await asyncio.wait_for(blocked, 1.0)
        assert gate.outstanding == 2

    asyncio.run(scenario())


def test_credit_gate_rejects_empty_pool():
    with pytest.raises(ValueError):
        CreditGate(0)


def test_credit_gate_try_acquire_never_waits():
    async def scenario():
        gate = CreditGate(2)
        assert gate.try_acquire() and gate.try_acquire()
        assert not gate.try_acquire()  # out of credits: refused, not queued
        assert gate.available == 0 and gate.outstanding == 2
        await gate.release(1)
        assert gate.try_acquire()
        assert gate.outstanding == 2

    asyncio.run(scenario())


def test_remote_outbox_try_put_ships_exactly_like_put():
    """The synchronous half of the channel contract on a socket link:
    same frame, same accounting as ``put`` when a credit is in hand;
    refused without one; ``ChannelClosed`` after close."""
    from repro.distributed.links import LinkCounters, RemoteOutbox
    from repro.live.channels import ChannelClosed
    from repro.live.transport import WorkTracker
    from repro.streams.tuples import StreamTuple

    class FrameSink:
        def __init__(self):
            self.frames = []

        def send(self, frame):
            self.frames.append(frame)

    batch = [
        StreamTuple(
            stream_id="s", seq=seq, created_at=0.1 * seq, values={"v": seq}, size=8.0
        )
        for seq in range(3)
    ]

    def make_outbox():
        outbox = RemoteOutbox(
            "entity-1",
            FrameSink(),
            CreditGate(1),
            tracker=WorkTracker(),
            counters=LinkCounters(),
        )
        outbox.tracker.add(len(batch))  # what LiveTransport.send does first
        return outbox

    def accounting(outbox):
        return (
            outbox.conn.frames,
            outbox.puts,
            outbox.depth,
            outbox.high_water,
            outbox.blocked_puts,
            outbox.counters.sent,
            outbox.tracker.in_flight,
        )

    async def scenario():
        awaited, tried = make_outbox(), make_outbox()
        await awaited.put(batch)
        assert tried.try_put(batch)
        assert accounting(tried) == accounting(awaited)
        assert len(tried.conn.frames) == 1 and tried.counters.sent == 3
        assert not tried.try_put(batch)  # no credit in hand
        assert accounting(tried) == accounting(awaited)  # ... and no trace
        await tried.close()
        with pytest.raises(ChannelClosed):
            tried.try_put(batch)

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# Federation runs (subprocess + sockets)
# ----------------------------------------------------------------------
def test_coordinator_is_single_use():
    coordinator = make_coordinator(seed=7, workers=1, duration=0.3)
    coordinator.run()
    with pytest.raises(RuntimeError):
        coordinator.run()


@pytest.mark.slow
def test_four_worker_parity_exercises_cross_links():
    """Four workers on a run shorter than the matrix's: the placement
    needs cross-worker links, batches cross them, and the results are
    the simulator's."""
    coordinator = make_coordinator(seed=7, workers=4)
    report = coordinator.run()
    assert coordinator.required_links  # entities spread across workers
    assert coordinator.violations == []
    assert report.dropped_tuples == 0
    total_sent = sum(
        m["sent"] for m in coordinator.worker_metrics.values()
    )
    assert total_sent > 0  # batches really crossed sockets
    assert_matches_reference(
        "plain", 7, coordinator.results, duration=DURATION
    )


# ----------------------------------------------------------------------
# CreditGate overflow cap: stray CREDIT frames cannot widen the window
# ----------------------------------------------------------------------
def test_credit_gate_release_capped_at_initial():
    async def scenario():
        gate = CreditGate(4)
        await gate.acquire(3)
        assert gate.available == 1
        # return more than is outstanding: duplicate CREDIT frames
        await gate.release(3)
        await gate.release(2)  # the pool is already full here
        assert gate.available == 4  # never above the initial window
        assert gate.outstanding == 0
        assert gate.excess_credit_returns == 2

    asyncio.run(scenario())


def test_credit_gate_exact_returns_count_no_excess():
    async def scenario():
        gate = CreditGate(2)
        await gate.acquire(2)
        await gate.release(1)
        await gate.release(1)
        assert gate.available == 2
        assert gate.excess_credit_returns == 0

    asyncio.run(scenario())


def test_audit_flags_excess_credit_returns():
    from repro.distributed.audit import audit_credits

    clean = audit_credits({0: {"excess_credit_returns": 0}})
    assert clean == []
    flagged = audit_credits(
        {0: {"excess_credit_returns": 0}, 1: {"excess_credit_returns": 3}}
    )
    assert len(flagged) == 1
    assert "worker-1" in flagged[0].subject
    assert "3" in flagged[0].detail


# ----------------------------------------------------------------------
# Pre-start query deltas: ADMIT/RETIRE reach every process identically
# ----------------------------------------------------------------------
def _extra_query():
    from repro.interest.predicates import StreamInterest
    from repro.query.spec import QuerySpec

    return QuerySpec(
        query_id="q6",
        interests=(
            StreamInterest.on("exchange-0.trades", price=(400.0, 800.0)),
        ),
        client_x=0.5,
        client_y=0.5,
    )


@pytest.mark.parametrize(
    "workers", [1, pytest.param(2, marks=pytest.mark.slow)]
)
def test_deltas_deliver_what_the_effective_set_delivers(workers):
    """Deltas shipped as ADMIT/RETIRE frames after ASSIGN make every
    process re-derive the same effective query set: the results are
    those of shipping that set in ASSIGN itself, the retired query is
    silent and the admitted one delivers."""
    delta = make_coordinator(seed=7, workers=workers)
    delta.admit_query(_extra_query())
    delta.retire_query("q1")
    report = delta.run()
    assert report.dropped_tuples == 0
    assert delta.violations == []
    __, __, queries = parity_workload(7)
    effective = [q for q in queries if q.query_id != "q1"] + [_extra_query()]
    whole = make_coordinator(seed=7, workers=workers, queries=effective)
    whole.run()
    keys = distributed_keys(delta)
    assert keys == distributed_keys(whole)
    delivered = {query_id for query_id, __, __seq in keys}
    assert "q1" not in delivered
    assert "q6" in delivered


def test_deltas_rejected_after_run_starts():
    coordinator = make_coordinator(seed=7, workers=1, duration=0.3)
    coordinator.run()
    with pytest.raises(RuntimeError):
        coordinator.admit_query(_extra_query())
    with pytest.raises(RuntimeError):
        coordinator.retire_query("q0")


def test_retire_of_unknown_query_is_a_noop():
    from repro.distributed.specs import apply_deltas

    catalog, config, queries = parity_workload(seed=7)
    system = FederatedSystem(catalog, config)
    system.submit(queries)
    apply_deltas(system, [{"action": "retire", "query_id": "ghost"}])


def test_delta_spec_rejects_unknown_action():
    from repro.distributed.specs import delta_to_spec

    with pytest.raises(ValueError):
        delta_to_spec("vaporize", {"query_id": "q0"})
