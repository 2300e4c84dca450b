"""E15 — live asyncio federation throughput.

Runs the same planned federation on the live runtime across a sweep of
entity counts and batch sizes and reports replay throughput (tuples/s of
delivered traffic), speedup over virtual time, queue high-water marks,
and retry/drop counts.  Batching amortises per-send overhead, so larger
batches should raise delivered throughput on the WAN tier.  Writes
``BENCH_live_throughput.json`` from the 4-entity, batch-32 leg.
"""

from __future__ import annotations

from repro.bench.reporting import Table, emit, print_header, write_bench_json
from repro.core.system import SystemConfig
from repro.live import LiveRuntime, LiveSettings
from repro.query.generator import WorkloadConfig, generate_workload
from repro.streams.catalog import stock_catalog

DURATION = 2.0
QUERIES = 48
SEED = 91
SWEEP = [
    (4, 1),
    (4, 8),
    (4, 32),
    (8, 8),
    (8, 32),
]


def run_live(entities, batch_size):
    catalog = stock_catalog(exchanges=2, rate=100.0)
    config = SystemConfig(
        entity_count=entities, processors_per_entity=3, seed=SEED
    )
    runtime = LiveRuntime(
        catalog,
        config,
        LiveSettings(duration=DURATION, batch_size=batch_size),
    )
    workload = generate_workload(
        catalog,
        WorkloadConfig(
            query_count=QUERIES, join_fraction=0.0, aggregate_fraction=0.2
        ),
        seed=SEED,
    )
    runtime.submit(workload.queries)
    return runtime.run()


def test_live_throughput_sweep(benchmark):
    results = {}

    def run():
        for entities, batch_size in SWEEP:
            results[(entities, batch_size)] = run_live(entities, batch_size)
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    print_header(
        f"E15 — live federation throughput ({QUERIES} queries, "
        f"{DURATION:.0f}s virtual traffic, as-fast-as-possible replay)"
    )
    table = Table(
        [
            "entities",
            "batch",
            "delivered/s",
            "speedup",
            "mean batch",
            "queue hw",
            "retries",
            "drops",
            "results",
        ]
    )
    for (entities, batch_size), r in results.items():
        table.add_row(
            [
                entities,
                batch_size,
                r.delivered_throughput,
                r.speedup,
                r.mean_batch_size,
                max(r.entity_queue_high_water.values(), default=0),
                r.retries,
                r.dropped_tuples,
                r.results,
            ]
        )
    table.show()

    small = results[(4, 1)]
    large = results[(4, 32)]
    emit(
        f"batching 1 -> 32 at 4 entities: mean batch "
        f"{small.mean_batch_size:.1f} -> {large.mean_batch_size:.1f}, "
        f"delivered {small.tuples_delivered} -> {large.tuples_delivered} tuples"
    )
    for r in results.values():
        assert r.results > 0
        assert r.dropped_tuples == 0
        assert r.tuples_ingested > 0
    # same plan + same seed: batch size must not change what is delivered
    assert small.tuples_delivered == large.tuples_delivered
    assert small.results == large.results
    # batching actually batches
    assert large.mean_batch_size > small.mean_batch_size

    write_bench_json(
        "live_throughput",
        {
            "entities": 4,
            "batch_size": 32,
            "queries": QUERIES,
            "duration_virtual_s": DURATION,
            "batch_delivered_tps": large.delivered_throughput,
            "tuples_delivered": large.tuples_delivered,
            "results": large.results,
        },
    )
