"""Fault injection for the migration abort-repair path.

A migration round that raises between pause and resume must not leave
the dataflow half-migrated behind a permanently closed gate:
:meth:`QueryMigrator.execute` repairs every move to a consistent
placement and the ``finally`` reopens the feeds.  These tests kill a
round mid-protocol — once inside the planner's transfer edit
(``FederatedSystem._transfer``: a half-applied move list) and once
during the migrator's ``_drain`` (nothing applied yet) — and assert
the run still completes, feeds flow afterwards (the adaptive result
set stays identical to a static run of the same trace), the abort is
counted, and the post-run structural audit is clean.
"""

from __future__ import annotations

import pytest

from repro.analysis.invariants import audit_federation
from repro.core.system import FederatedSystem, SystemConfig
from repro.live import (
    Adaptation,
    AdaptationSettings,
    LiveRuntime,
    LiveSettings,
)
from repro.live.adaptation import QueryMigrator
from repro.query.generator import WorkloadConfig, generate_workload
from repro.streams.catalog import stock_catalog
from repro.workloads import apply_rate_drift, crossfade_rates

SEED = 17
DURATION = 2.5
QUERIES = 28


def build_runtime(adaptive: bool):
    """The drifting-rate scenario from the adaptation suite."""
    catalog = stock_catalog(exchanges=2, rate=100.0)
    config = SystemConfig(
        entity_count=4, processors_per_entity=3, seed=SEED
    )
    settings = LiveSettings(
        duration=DURATION, batch_size=16, send_timeout=2.0, max_retries=6
    )
    services = []
    if adaptive:
        services.append(
            Adaptation(
                AdaptationSettings(
                    period=0.5, strategy="hybrid", imbalance_threshold=1.15
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
def static_keys():
    static = build_runtime(adaptive=False)
    report = static.run()
    assert report.dropped_tuples == 0
    return key_set(static.results)


def run_with_fault(monkeypatch, *, fail_in: str, fail_on_call: int):
    """Run the adaptive scenario with one injected mid-round failure."""
    calls = {"n": 0}
    owner = QueryMigrator if fail_in == "_drain" else FederatedSystem
    original = getattr(owner, fail_in)

    if fail_in == "_drain":

        async def faulty(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == fail_on_call:
                raise RuntimeError("injected drain fault")
            return await original(self, *args, **kwargs)

    else:

        def faulty(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == fail_on_call:
                raise RuntimeError("injected transfer fault")
            return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, fail_in, faulty)
    runtime = build_runtime(adaptive=True)
    report = runtime.run()
    assert calls["n"] >= fail_on_call, "the fault never fired"
    return runtime, report


def assert_recovered(runtime, report, static_keys):
    """The common post-abort contract: counted, repaired, flowing."""
    adaptation = report.adaptation
    assert adaptation is not None
    assert adaptation.aborted_migrations >= 1
    # every round's audit, the aborted round's included, came out clean
    assert adaptation.audits >= 1 and adaptation.audit_violations == 0
    # feeds were reopened and results kept flowing: the run delivers
    # the identical result set as the static baseline, exactly-once
    assert key_set(runtime.results) == static_keys
    assert report.dropped_tuples == 0
    # the repaired placement passes the full structural audit
    assert audit_federation(
        runtime.planner, dataflow=runtime.dataflow
    ) == []
    # hosting bookkeeping agrees with the assignment after repair
    hosted_at = {
        query_id: entity_id
        for entity_id, entity in runtime.planner.entities.items()
        for query_id in entity.hosted
    }
    assert hosted_at == runtime.planner.allocation_result.assignment


def test_abort_mid_transfer_repairs_and_resumes(
    monkeypatch, static_keys
):
    """Kill the round on its second fragment transfer: the move list is
    half-applied, so the repair must re-anchor queries on both sides."""
    runtime, report = run_with_fault(
        monkeypatch, fail_in="_transfer", fail_on_call=2
    )
    assert_recovered(runtime, report, static_keys)


def test_abort_mid_drain_reopens_gate(monkeypatch, static_keys):
    """Kill the round while draining, before any transfer: nothing is
    half-applied, but the gate must still reopen and later rounds run."""
    runtime, report = run_with_fault(
        monkeypatch, fail_in="_drain", fail_on_call=1
    )
    assert_recovered(runtime, report, static_keys)
    # with the very first drain killed, at least one later round still
    # migrated successfully — the loop survives an abort
    assert report.adaptation.rounds > 1
