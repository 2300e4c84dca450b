"""E19 — intra-operator parallelism: partitioned grouped aggregates.

The partition workload's per-symbol aggregates run over a skewed (Zipf
1.3) stock tape with a deliberately heavy aggregation function, so the
aggregate stage — not the upstream filters — is the CPU bottleneck.
The same federation then runs at partition parallelism 1, 2, and 4, and
once more at 4 with the skew-aware rebalanced spec installed (the
steady state after the ``Adaptation`` service's skew trigger has fired, here
warm-started from a probe run's key histogram so the simulator measures
the post-rebalance regime directly).

Delivered throughput is results over the virtual-time makespan: the
simulator drains every queued tuple after the 2 s tape ends, so a
saturated stage stretches the makespan instead of dropping tuples.
Plain hashing is capped by the hot partition (symbol 0 plus every
symbol ≡ 0 mod 4 land together); the greedy rebalance moves the
satellite hot keys off that partition and flattens the shares to ~25%
each, which is what carries the 4-way speedup past 2×.

The equivalence contract rides along: every leg must deliver the
bit-identical result-key set — partitioning and rebalancing change
wall time, never results.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.reporting import Table, emit, print_header
from repro.core.system import FederatedSystem
from repro.workloads import partition_workload

SEED = 0
DURATION = 2.0
RATE = 100.0
ZIPF_S = 1.3
AGG_COST = 5e-2  # nominal CPU s/tuple of the aggregate stage
PROCESSORS = 6  # pre, 4 partitions, and merge each get their own CPU


def build_system(parallelism: int) -> FederatedSystem:
    catalog, config, queries = partition_workload(
        SEED, rate=RATE, parallelism=4, zipf_s=ZIPF_S, agg_cost=AGG_COST
    )
    config = replace(
        config,
        partition_parallelism=parallelism,
        processors_per_entity=PROCESSORS,
    )
    system = FederatedSystem(catalog, config)
    system.submit(queries)
    return system


def routers(system: FederatedSystem):
    for entity in system.entities.values():
        for hosted in entity.hosted.values():
            if hosted.partition is not None:
                yield hosted.spec.query_id, hosted.partition.router


def run_leg(parallelism: int, key_counts=None):
    """One measured run; returns (result_keys, makespan, key_counts)."""
    system = build_system(parallelism)
    if key_counts:
        for query_id, router in routers(system):
            router.repartition(router.spec.rebalanced(key_counts[query_id]))
    observed: set = set()
    last = [0.0]

    def wrap(handler):
        def wrapped(query_id, tup):
            observed.add((query_id, tup.stream_id, tup.seq))
            last[0] = max(last[0], system.sim.now)
            handler(query_id, tup)

        return wrapped

    for entity in system.entities.values():
        if entity.result_handler is not None:
            entity.result_handler = wrap(entity.result_handler)
    system.run(duration=DURATION)
    system.sim.run()  # drain the saturated stage completely
    counts = {
        query_id: dict(router.key_counts)
        for query_id, router in routers(system)
    }
    return observed, last[0], counts


def test_partitioned_aggregate_speedup():
    legs = {}

    def run():
        legs["p1"] = run_leg(1)
        legs["p2"] = run_leg(2)
        legs["p4"] = run_leg(4)
        # steady state after the skew trigger: rebalance from the plain
        # 4-way run's key histogram, then measure a fresh run
        legs["p4_rebalanced"] = run_leg(4, key_counts=legs["p4"][2])
        return legs

    run()

    base_keys = legs["p1"][0]
    throughput = {
        name: len(keys) / makespan
        for name, (keys, makespan, __) in legs.items()
    }
    speedup_hash = throughput["p4"] / throughput["p1"]
    speedup = throughput["p4_rebalanced"] / throughput["p1"]

    print_header(
        "E19 — partitioned grouped aggregates "
        f"(Zipf {ZIPF_S} stock tape, {DURATION:.0f}s virtual traffic, "
        f"aggregate cost {AGG_COST * 1e3:.0f} ms/tuple)"
    )
    table = Table(
        ["leg", "results", "makespan [s]", "delivered/s", "speedup"]
    )
    for name in ("p1", "p2", "p4", "p4_rebalanced"):
        keys, makespan, __ = legs[name]
        table.add_row(
            [
                name,
                len(keys),
                makespan,
                throughput[name],
                throughput[name] / throughput["p1"],
            ]
        )
    table.show()
    emit(
        f"hash-only 4-way speedup {speedup_hash:.2f}x is skew-capped; "
        f"the rebalanced spec reaches {speedup:.2f}x"
    )

    # the equivalence contract: every leg delivers the identical results
    assert base_keys, "the workload produced no results"
    for name, (keys, __, ___) in legs.items():
        assert keys == base_keys, f"leg {name} changed the result set"
    # the acceptance bar: >= 2x delivered throughput at 4 partitions
    assert speedup >= 2.0
    # rebalancing must actually help on this skew, not just not hurt
    assert speedup > speedup_hash
