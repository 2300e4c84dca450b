"""Multi-seed sim-vs-live-vs-distributed parity sweep (slow).

The fast suite checks live/sim parity on two seeds
(``test_live_runtime.py``); this sweep widens the evidence to a dozen
seeds so a parity regression that happens to miss the fast seeds still
gets caught nightly.  For stateless selection queries the result set is
timestamp-free, so the live runtime must reproduce the simulator's
result tuples *exactly* on every seed.

The third leg runs the same federation split across worker OS
processes: the distributed runtime must deliver the identical result
set too — batches crossing real sockets through the wire codec, credit
gates, and the relay collector change wall time, never results.  The
distributed leg covers a subset of the seeds (each run spawns
processes) with the worker count varied across seeds.

The fourth leg is partitioned-live: the partition workload's grouped
aggregates run 4-way partition-parallel (router → partition fragments →
order-preserving merge, ``docs/protocols.md`` §7), and both a plain sim
run and a partitioned live run must deliver the identical result set as
a *non-partitioned* sim run of the same seed — intra-operator
parallelism must be invisible in results.

Marked ``slow``: run with ``pytest -m slow`` (the nightly CI job), or
excluded via ``-m "not slow"`` (the fast job).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.system import FederatedSystem
from repro.distributed import DistributedCoordinator
from repro.live import LiveRuntime, LiveSettings
from repro.workloads import parity_workload, partition_workload, sharing_workload

SEEDS = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
DISTRIBUTED_SWEEP = [(3, 2), (7, 4), (11, 8), (19, 2), (29, 3)]  # (seed, workers)
PARTITIONED_SEEDS = [2, 7, 19, 29]
SHARED_SEEDS = [2, 7, 19, 29]
SHARED_DISTRIBUTED_SWEEP = [(7, 2), (29, 3)]  # (seed, workers)
DURATION = 1.5


def simulated_result_keys(seed):
    catalog, config, queries = parity_workload(seed)
    system = FederatedSystem(catalog, config)
    system.submit(queries)
    observed = set()

    def wrap(handler):
        def wrapped(query_id, tup):
            observed.add((query_id, tup.stream_id, tup.seq))
            handler(query_id, tup)

        return wrapped

    for entity in system.entities.values():
        if entity.result_handler is not None:
            entity.result_handler = wrap(entity.result_handler)
    system.run(duration=DURATION)
    system.sim.run()  # drain in-flight tuples
    return observed


def live_result_keys(seed):
    catalog, config, queries = parity_workload(seed)
    runtime = LiveRuntime(
        catalog, config, LiveSettings(duration=DURATION, batch_size=4)
    )
    runtime.submit(queries)
    report = runtime.run()
    assert report.dropped_tuples == 0
    assert report.negative_latency_samples == 0
    return {
        (query_id, tup.stream_id, tup.seq)
        for query_id, tups in runtime.results.items()
        for tup in tups
    }


def distributed_result_keys(seed, workers):
    catalog, config, queries = parity_workload(seed)
    coordinator = DistributedCoordinator(
        catalog,
        config,
        queries,
        LiveSettings(duration=DURATION, batch_size=4),
        workers=workers,
    )
    report = coordinator.run()
    assert report.dropped_tuples == 0
    assert report.negative_latency_samples == 0
    assert coordinator.violations == []
    return {
        (query_id, tup.stream_id, tup.seq)
        for query_id, tups in coordinator.results.items()
        for tup in tups
    }


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
def test_live_matches_simulator_across_seed_sweep(seed):
    sim_keys = simulated_result_keys(seed)
    assert sim_keys, f"seed {seed}: simulated workload produced no results"
    assert live_result_keys(seed) == sim_keys


@pytest.mark.slow
@pytest.mark.parametrize("seed,workers", DISTRIBUTED_SWEEP)
def test_distributed_matches_simulator(seed, workers):
    sim_keys = simulated_result_keys(seed)
    assert sim_keys, f"seed {seed}: simulated workload produced no results"
    assert distributed_result_keys(seed, workers) == sim_keys


# ---------------------------------------------------------------------------
# Partitioned leg: intra-operator parallelism must be result-invisible
# ---------------------------------------------------------------------------
def partition_sim_keys(seed, parallelism):
    catalog, config, queries = partition_workload(seed)
    if parallelism == 1:
        config = replace(config, partition_parallelism=1)
    system = FederatedSystem(catalog, config)
    system.submit(queries)
    observed = set()

    def wrap(handler):
        def wrapped(query_id, tup):
            observed.add((query_id, tup.stream_id, tup.seq))
            handler(query_id, tup)

        return wrapped

    for entity in system.entities.values():
        if entity.result_handler is not None:
            entity.result_handler = wrap(entity.result_handler)
    system.run(duration=DURATION)
    system.sim.run()
    return observed


def partition_live_keys(seed):
    catalog, config, queries = partition_workload(seed)
    runtime = LiveRuntime(
        catalog, config, LiveSettings(duration=DURATION, batch_size=4)
    )
    runtime.submit(queries)
    report = runtime.run()
    assert report.dropped_tuples == 0
    assert report.negative_latency_samples == 0
    return {
        (query_id, tup.stream_id, tup.seq)
        for query_id, tups in runtime.results.items()
        for tup in tups
    }


@pytest.mark.slow
@pytest.mark.parametrize("seed", PARTITIONED_SEEDS)
def test_partitioned_legs_match_single_fragment_simulator(seed):
    """Sim (1-way) == sim (4-way partitioned) == live (4-way)."""
    base = partition_sim_keys(seed, parallelism=1)
    assert base, f"seed {seed}: partition workload produced no results"
    assert partition_sim_keys(seed, parallelism=4) == base
    assert partition_live_keys(seed) == base


# ---------------------------------------------------------------------------
# Shared leg: the multi-query optimizer must be result-invisible
# ---------------------------------------------------------------------------
def sharing_sim_keys(seed, *, shared):
    catalog, config, queries = sharing_workload(seed)
    system = FederatedSystem(catalog, replace(config, shared_execution=shared))
    system.submit(queries)
    observed = set()

    def wrap(handler):
        def wrapped(query_id, tup):
            observed.add((query_id, tup.stream_id, tup.seq))
            handler(query_id, tup)

        return wrapped

    for entity in system.entities.values():
        if entity.result_handler is not None:
            entity.result_handler = wrap(entity.result_handler)
    system.run(duration=DURATION)
    system.sim.run()
    if shared:
        groups = sum(len(e.shared) for e in system.entities.values())
        assert groups >= 1, f"seed {seed}: no shared group formed"
    return observed


def sharing_live_keys(seed):
    catalog, config, queries = sharing_workload(seed)
    runtime = LiveRuntime(
        catalog, config, LiveSettings(duration=DURATION, batch_size=4)
    )
    runtime.submit(queries)
    report = runtime.run()
    assert report.dropped_tuples == 0
    assert report.negative_latency_samples == 0
    return {
        (query_id, tup.stream_id, tup.seq)
        for query_id, tups in runtime.results.items()
        for tup in tups
    }


def sharing_distributed_keys(seed, workers):
    catalog, config, queries = sharing_workload(seed)
    coordinator = DistributedCoordinator(
        catalog,
        config,
        queries,
        LiveSettings(duration=DURATION, batch_size=4),
        workers=workers,
    )
    report = coordinator.run()
    assert report.dropped_tuples == 0
    assert coordinator.violations == []
    return {
        (query_id, tup.stream_id, tup.seq)
        for query_id, tups in coordinator.results.items()
        for tup in tups
    }


@pytest.mark.slow
@pytest.mark.parametrize("seed", SHARED_SEEDS)
def test_shared_legs_match_unshared_simulator(seed):
    """Sim (unshared) == sim (shared) == live (shared)."""
    base = sharing_sim_keys(seed, shared=False)
    assert base, f"seed {seed}: sharing workload produced no results"
    assert sharing_sim_keys(seed, shared=True) == base
    assert sharing_live_keys(seed) == base


@pytest.mark.slow
@pytest.mark.parametrize("seed,workers", SHARED_DISTRIBUTED_SWEEP)
def test_shared_distributed_matches_unshared_simulator(seed, workers):
    """Workers re-planning shared groups from ASSIGN specs deliver the
    identical result set as an unshared sim run."""
    base = sharing_sim_keys(seed, shared=False)
    assert base, f"seed {seed}: sharing workload produced no results"
    assert sharing_distributed_keys(seed, workers) == base
