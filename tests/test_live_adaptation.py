"""Tests for the closed adaptation loop (live repartitioning + migration).

The static planner allocates once from catalog rates; these tests drive
a drifting-rate trace through both the static :class:`LiveRuntime` and
one running the :class:`Adaptation` service and check the loop's contract: load
observed from the monitor drives repartitioning, queries migrate
online, and the pause → drain → transfer → resume protocol neither
loses nor duplicates a single result tuple.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cli import main
from repro.core.system import SystemConfig
from repro.live import (
    Adaptation,
    AdaptationSettings,
    FeedGate,
    LiveClock,
    LiveRuntime,
    LiveSettings,
)
from repro.live.adaptation import LoadSampler
from repro.live.metrics import LiveMetrics
from repro.query.generator import WorkloadConfig, generate_workload
from repro.streams.catalog import stock_catalog
from repro.workloads import apply_rate_drift, crossfade_rates

SEED = 17
DURATION = 2.5
QUERIES = 28


def build_runtime(strategy=None):
    """One drifting-rate scenario; ``None`` = static baseline."""
    catalog = stock_catalog(exchanges=2, rate=100.0)
    config = SystemConfig(
        entity_count=4, processors_per_entity=3, seed=SEED
    )
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
    hot = {s for s in catalog.stream_ids() if s.startswith("exchange-0")}
    apply_rate_drift(
        runtime.planner.sources,
        crossfade_rates(
            catalog, hot, factor_up=6.0, factor_down=0.25, duration=DURATION
        ),
    )
    return runtime


def key_set(results):
    return {
        (query_id, tup.stream_id, tup.seq)
        for query_id, tups in results.items()
        for tup in tups
    }


@pytest.fixture(scope="module")
def static_and_adaptive():
    static = build_runtime(None)
    static_report = static.run()
    adaptive = build_runtime("hybrid")
    adaptive_report = adaptive.run()
    return static, static_report, adaptive, adaptive_report


def test_migration_is_exactly_once(static_and_adaptive):
    """Same trace, same results: nothing lost or duplicated across
    pause → drain → transfer → resume cycles."""
    static, static_report, adaptive, adaptive_report = static_and_adaptive
    assert adaptive_report.adaptation is not None
    assert adaptive_report.adaptation.queries_migrated > 0
    assert key_set(adaptive.results) == key_set(static.results)
    assert static_report.dropped_tuples == 0
    assert adaptive_report.dropped_tuples == 0


def test_adaptation_reduces_hot_entity_load(static_and_adaptive):
    __, static_report, __, adaptive_report = static_and_adaptive
    assert max(adaptive_report.entity_cpu_seconds.values()) < max(
        static_report.entity_cpu_seconds.values()
    )


def test_latency_clamps_are_counted_not_silent(static_and_adaptive):
    __, static_report, __, adaptive_report = static_and_adaptive
    assert static_report.negative_latency_samples == 0
    assert adaptive_report.negative_latency_samples == 0


def test_adaptation_report_is_consistent(static_and_adaptive):
    __, __, __, adaptive_report = static_and_adaptive
    adaptation = adaptive_report.adaptation
    assert adaptation.strategy == "hybrid"
    assert adaptation.rounds >= adaptation.adaptations > 0
    assert adaptation.gross_moves >= adaptation.queries_migrated
    assert adaptation.fragments_migrated >= adaptation.queries_migrated
    assert adaptation.decision_seconds > 0.0
    assert adaptation.pause_wall_seconds > 0.0
    assert len(adaptation.history) == adaptation.rounds
    assert any("adaptation[hybrid]" in line for line in
               adaptive_report.summary_lines())
    # every migrating round was audited and none violated an invariant
    assert adaptation.audits == adaptation.adaptations
    assert adaptation.audit_violations == 0
    assert any("invariant audits" in line for line in
               adaptive_report.summary_lines())


def test_migrated_placement_matches_hosting(static_and_adaptive):
    """After migrations the planner's assignment, the entities' hosted
    queries, and the dissemination trees agree with each other."""
    __, __, adaptive, __ = static_and_adaptive
    planner = adaptive.planner
    hosted_at = {
        query_id: entity_id
        for entity_id, entity in planner.entities.items()
        for query_id in entity.hosted
    }
    assert hosted_at == planner.allocation_result.assignment
    trees = adaptive.dataflow.trees
    for entity_id, entity in planner.entities.items():
        for stream_id, interests in entity.interests_by_stream().items():
            if interests:
                assert trees[stream_id].contains(entity_id), (
                    f"{entity_id} hosts a query on {stream_id} but is "
                    "not in its dissemination tree"
                )
    # ... and the full structural audit agrees: coordinator bounds,
    # tree/interest consistency, delegation totality, hosting, wiring
    from repro.analysis.invariants import audit_federation

    assert audit_federation(planner, dataflow=adaptive.dataflow) == []


def test_feed_gate_parks_and_releases():
    async def scenario():
        gate = FeedGate()
        assert gate.is_open
        gate.close()
        assert not gate.is_open

        async def waiter():
            await gate.wait_open()
            return "released"

        task = asyncio.create_task(waiter())
        for __ in range(20):
            await asyncio.sleep(0)
            if gate.waiting == 1:
                break
        assert gate.waiting == 1
        gate.open()
        assert await task == "released"
        assert gate.waiting == 0

    asyncio.run(scenario())


def test_clock_wait_until_wakes_on_pace():
    async def scenario():
        clock = LiveClock(time_scale=0.0)  # unpaced
        woke = []

        async def waiter():
            await clock.wait_until(0.5)
            woke.append(clock.now)

        task = asyncio.create_task(waiter())
        await asyncio.sleep(0)
        assert not woke
        await clock.pace(0.2)
        await asyncio.sleep(0)
        assert not woke
        await clock.pace(0.6)
        await asyncio.sleep(0)
        await task
        assert woke and woke[0] >= 0.5

    asyncio.run(scenario())


def test_load_sampler_windows_busy_deltas():
    metrics = LiveMetrics()
    sampler = LoadSampler(metrics)
    metrics.record_busy("e0", 0.10, query_id="q0")
    metrics.record_busy("e0", 0.30, query_id="q1")
    rates = sampler.sample(2.0)
    assert rates["q0"] == pytest.approx(0.05)
    assert rates["q1"] == pytest.approx(0.15)
    # second window sees only the delta
    metrics.record_busy("e0", 0.02, query_id="q0")
    rates = sampler.sample(4.0)
    assert rates["q0"] == pytest.approx(0.01)
    assert rates["q1"] == pytest.approx(0.0)


def test_adaptation_settings_validate():
    with pytest.raises(ValueError):
        AdaptationSettings(period=0.0)
    with pytest.raises(ValueError):
        AdaptationSettings(strategy="magic")
    with pytest.raises(ValueError):
        AdaptationSettings(imbalance_threshold=0.9)


def test_cli_adapt_command_runs(capsys):
    code = main(
        [
            "adapt",
            "--entities",
            "3",
            "--queries",
            "12",
            "--duration",
            "1.5",
            "--strategy",
            "cut",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "adaptation[cut]" in out
    assert "adaptation cost" in out


def test_cli_adapt_exits_nonzero_on_a_dirty_migration_audit(
    monkeypatch, capsys
):
    """A violation found by a post-migration audit is printed *and*
    fails the command, like ``repro check`` and ``repro race``."""
    from repro.analysis.invariants import InvariantViolation
    from repro.live import adaptation

    monkeypatch.setattr(
        adaptation,
        "audit_federation",
        lambda *args, **kwargs: [
            InvariantViolation("hosting", "entity-0", "planted by the test")
        ],
    )
    args = ["adapt", "--entities", "3", "--queries", "12"]
    args += ["--duration", "1.5", "--strategy", "cut"]
    assert main(args) == 1
    assert "invariant audits: 2 run, 2 violations" in capsys.readouterr().out
    # the static baseline runs no adaptation loop, hence no audit
    assert main(args + ["--static"]) == 0
