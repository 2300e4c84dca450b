"""E17 — live adaptation loop vs static allocation under drifting rates.

The allocation is computed once from the catalog's planned rates; then
the traffic crossfades — exchange-0 streams ramp to 6x their planned
rate while every other stream decays to a quarter — so the static
placement is increasingly wrong as the run proceeds.  The same recorded
trace (same seed, same rate profiles) replays four times: once on the
static :class:`~repro.live.LiveRuntime` and once per repartitioning
strategy with the :class:`~repro.live.Adaptation` service listed.

Claims checked:

* adaptation reduces the hottest entity's CPU load and the p95
  source-to-result latency versus the static run;
* the migration protocol is exactly-once: every run produces the
  *identical* result set (no tuple lost or duplicated across pause →
  drain → state transfer → resume cycles);
* the three §3.2.2 strategies trade decision time against migration
  count, now measured live instead of offline (E7).

Writes ``BENCH_live_adaptation.json``.
"""

from __future__ import annotations

from repro.bench.reporting import Table, emit, print_header, write_bench_json
from repro.core.system import SystemConfig
from repro.live import (
    Adaptation,
    AdaptationSettings,
    LiveRuntime,
    LiveSettings,
)
from repro.query.generator import WorkloadConfig, generate_workload
from repro.streams.catalog import stock_catalog
from repro.workloads import apply_rate_drift, crossfade_rates

DURATION = 3.0
QUERIES = 32
SEED = 17
ENTITIES = 4
STRATEGIES = ("scratch", "cut", "hybrid")


def run_once(strategy: str | None):
    """One replay of the drifting trace; ``None`` = static baseline."""
    catalog = stock_catalog(exchanges=2, rate=100.0)
    config = SystemConfig(
        entity_count=ENTITIES, processors_per_entity=3, seed=SEED
    )
    # generous send budget: result identity must not depend on drops
    settings = LiveSettings(
        duration=DURATION, batch_size=16, send_timeout=2.0, max_retries=6
    )
    services = []
    if strategy is not None:
        services.append(
            Adaptation(
                AdaptationSettings(
                    period=0.5, strategy=strategy, imbalance_threshold=1.15
                )
            )
        )
    runtime = LiveRuntime(catalog, config, settings, services=services)
    workload = generate_workload(
        catalog,
        WorkloadConfig(
            query_count=QUERIES, join_fraction=0.0, aggregate_fraction=0.2
        ),
        seed=SEED,
    )
    runtime.submit(workload.queries)
    hot = {
        stream_id
        for stream_id in catalog.stream_ids()
        if stream_id.startswith("exchange-0")
    }
    apply_rate_drift(
        runtime.planner.sources,
        crossfade_rates(
            catalog, hot, factor_up=6.0, factor_down=0.25, duration=DURATION
        ),
    )
    report = runtime.run()
    keys = {
        (query_id, tup.stream_id, tup.seq)
        for query_id, tups in runtime.results.items()
        for tup in tups
    }
    return report, keys


def test_live_adaptation_vs_static(benchmark):
    runs = {}

    def run():
        runs["static"] = run_once(None)
        for strategy in STRATEGIES:
            runs[strategy] = run_once(strategy)
        return runs

    benchmark.pedantic(run, rounds=1, iterations=1)

    static, static_keys = runs["static"]
    print_header(
        f"E17 — live adaptation vs static allocation ({QUERIES} queries, "
        f"{ENTITIES} entities, {DURATION:.0f}s drifting-rate traffic)"
    )
    table = Table(
        [
            "mode",
            "max cpu s",
            "p95 ms",
            "mean ms",
            "migrations",
            "gross",
            "decision ms",
            "pause ms",
            "results",
        ]
    )

    def row(label, report):
        adaptation = report.adaptation
        table.add_row(
            [
                label,
                max(report.entity_cpu_seconds.values(), default=0.0),
                report.p95_result_latency * 1000,
                report.mean_result_latency * 1000,
                adaptation.queries_migrated if adaptation else 0,
                adaptation.gross_moves if adaptation else 0,
                adaptation.decision_seconds * 1000 if adaptation else 0.0,
                adaptation.pause_wall_seconds * 1000 if adaptation else 0.0,
                report.results,
            ]
        )

    row("static", static)
    for strategy in STRATEGIES:
        row(strategy, runs[strategy][0])
    table.show()

    static_max = max(static.entity_cpu_seconds.values())
    for strategy in STRATEGIES:
        report, keys = runs[strategy]
        # exactly-once migration: identical result sets, nothing dropped
        assert keys == static_keys, f"{strategy}: result set differs"
        assert report.dropped_tuples == 0
        assert report.negative_latency_samples == 0
        # the loop actually closed: rounds ran and queries moved
        assert report.adaptation is not None
        assert report.adaptation.rounds > 0
        assert report.adaptation.queries_migrated > 0
        # net accounting: gross moves can only exceed net migrations
        assert (
            report.adaptation.gross_moves
            >= report.adaptation.queries_migrated
        )
        # adaptation beats the static placement on the hot entity
        report_max = max(report.entity_cpu_seconds.values())
        assert report_max < static_max, (
            f"{strategy}: max entity load {report_max:.3f} not below "
            f"static {static_max:.3f}"
        )
        assert report.p95_result_latency < static.p95_result_latency
    assert static.dropped_tuples == 0
    assert static.negative_latency_samples == 0

    hybrid, __ = runs["hybrid"]
    emit(
        f"hybrid: max entity load {static_max:.3f} -> "
        f"{max(hybrid.entity_cpu_seconds.values()):.3f} cpu s, p95 "
        f"{static.p95_result_latency * 1000:.0f} -> "
        f"{hybrid.p95_result_latency * 1000:.0f} ms, "
        f"{hybrid.adaptation.queries_migrated} queries migrated in "
        f"{hybrid.adaptation.adaptations} adaptations"
    )

    payload = {
        "queries": QUERIES,
        "entities": ENTITIES,
        "duration_virtual_s": DURATION,
        "static_max_entity_cpu_s": static_max,
        "static_p95_latency_s": static.p95_result_latency,
        "results": static.results,
    }
    for strategy in STRATEGIES:
        report, __ = runs[strategy]
        adaptation = report.adaptation
        report_max = max(report.entity_cpu_seconds.values())
        payload[f"{strategy}_max_entity_cpu_s"] = report_max
        payload[f"{strategy}_p95_latency_s"] = report.p95_result_latency
        payload[f"{strategy}_migrations"] = adaptation.queries_migrated
        payload[f"{strategy}_gross_moves"] = adaptation.gross_moves
        payload[f"{strategy}_decision_ms"] = (
            adaptation.decision_seconds * 1000
        )
        payload[f"{strategy}_max_load_gain"] = static_max / report_max
        payload[f"{strategy}_p95_gain"] = (
            static.p95_result_latency / report.p95_result_latency
        )
    write_bench_json("live_adaptation", payload)
