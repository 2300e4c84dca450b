"""E17 — live adaptation loop vs static allocation under drifting rates.

The allocation is computed once from the catalog's planned rates; then
the traffic crossfades — exchange-0 streams ramp to 6x their planned
rate while every other stream decays to a quarter — so the static
placement is increasingly wrong as the run proceeds.  Per seed, the same
recorded trace (same rate profiles) replays four times: once on the
static :class:`~repro.live.LiveRuntime` and once per repartitioning
strategy with the :class:`~repro.live.Adaptation` service listed.  The
sweep covers sixteen seeds, because where a round's load sample falls
is chaotic: at any one seed a strategy may or may not end below the
static run's hottest entity.

Claims checked:

* the migration protocol is exactly-once, at every seed: every run
  produces the *identical* result set (no tuple lost or duplicated
  across pause → drain → state transfer → resume cycles);
* adaptation cuts the p95 source-to-result latency versus the static
  run, per strategy: the median gain over the seeds is at least 1.1x
  and at least 12 of the 16 seeds beat static;
* what adaptation does to the hottest entity's CPU load is *reported*
  (median gain, seeds won), not asserted — it is a coin flip for
  ``scratch`` and a modest win for ``cut``;
* the three §3.2.2 strategies trade decision time against migration
  count, measured live instead of offline (E7).
"""

from __future__ import annotations

from statistics import median

from repro.bench.reporting import Table, emit, print_header
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
SEEDS = tuple(range(11, 27))
ENTITIES = 4
STRATEGIES = ("scratch", "cut", "hybrid")
MIN_P95_GAIN_MEDIAN = 1.1
MIN_P95_SEEDS_WON = 12


def run_once(strategy: str | None, seed: int):
    """One replay of the drifting trace; ``None`` = static baseline."""
    catalog = stock_catalog(exchanges=2, rate=100.0)
    config = SystemConfig(
        entity_count=ENTITIES, processors_per_entity=3, seed=seed
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
        seed=seed,
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


def max_load(report) -> float:
    """CPU seconds of the run's hottest entity."""
    return max(report.entity_cpu_seconds.values())


def test_live_adaptation_vs_static():
    sweep = {}

    def run():
        for seed in SEEDS:
            sweep[seed] = {
                mode: run_once(mode, seed) for mode in (None, *STRATEGIES)
            }
        return sweep

    run()

    print_header(
        f"E17 — live adaptation vs static allocation ({QUERIES} queries, "
        f"{ENTITIES} entities, {DURATION:.0f}s drifting-rate traffic, "
        f"seeds {SEEDS[0]}–{SEEDS[-1]})"
    )
    per_seed = Table(
        ["seed", "static max cpu s", "static p95 ms"]
        + [f"{s} {what}" for s in STRATEGIES for what in ("load x", "p95 x")]
    )
    load_gain = {strategy: [] for strategy in STRATEGIES}
    p95_gain = {strategy: [] for strategy in STRATEGIES}
    for seed, runs in sweep.items():
        static, static_keys = runs[None]
        assert static.dropped_tuples == 0
        assert static.negative_latency_samples == 0
        row = [seed, max_load(static), static.p95_result_latency * 1000]
        for strategy in STRATEGIES:
            report, keys = runs[strategy]
            # exactly-once migration: identical result sets, nothing dropped
            assert keys == static_keys, f"{strategy}@{seed}: result set differs"
            assert report.dropped_tuples == 0
            assert report.negative_latency_samples == 0
            # the loop actually closed, and its accounting is sane: gross
            # moves can only exceed net migrations
            adaptation = report.adaptation
            assert adaptation is not None and adaptation.rounds > 0
            assert adaptation.gross_moves >= adaptation.queries_migrated
            load_gain[strategy].append(max_load(static) / max_load(report))
            p95_gain[strategy].append(
                static.p95_result_latency / report.p95_result_latency
            )
            row += [load_gain[strategy][-1], p95_gain[strategy][-1]]
        per_seed.add_row(row)
    per_seed.show()

    summary = Table(
        [
            "strategy",
            "median p95 gain",
            "p95 seeds won",
            "median max-load gain",
            "max-load seeds won",
            "median migrations",
            "median gross",
            "median decision ms",
        ]
    )
    for strategy in STRATEGIES:
        adaptations = [
            runs[strategy][0].adaptation for runs in sweep.values()
        ]
        stats = {
            "p95_gain_median": median(p95_gain[strategy]),
            "p95_seeds_won": sum(g > 1.0 for g in p95_gain[strategy]),
            "max_load_gain_median": median(load_gain[strategy]),
            "max_load_seeds_won": sum(g > 1.0 for g in load_gain[strategy]),
            "migrations_median": median(
                a.queries_migrated for a in adaptations
            ),
            "gross_moves_median": median(a.gross_moves for a in adaptations),
            "decision_ms_median": median(
                a.decision_seconds * 1000 for a in adaptations
            ),
        }
        summary.add_row([strategy, *stats.values()])
        # the one claim that holds whichever way a round's sample falls:
        # a median gain over the seeds, and most seeds won outright
        assert stats["p95_gain_median"] >= MIN_P95_GAIN_MEDIAN, (
            f"{strategy}: median p95 gain {stats['p95_gain_median']:.2f} "
            f"over {len(SEEDS)} seeds is below {MIN_P95_GAIN_MEDIAN}"
        )
        assert stats["p95_seeds_won"] >= MIN_P95_SEEDS_WON, (
            f"{strategy}: p95 beats static on only "
            f"{stats['p95_seeds_won']} of {len(SEEDS)} seeds"
        )
        assert any(a.queries_migrated > 0 for a in adaptations)
    summary.show()
    emit(
        "max-load gain is reported, not asserted: at one seed a strategy "
        "may end above the static run's hottest entity"
    )
