"""E16 — failure recovery benefit under deterministic chaos.

Runs the live runtime under scripted processor crashes — victims chosen
from the planner's delegation state, so every crash actually strands
delegated streams — with recovery enabled versus disabled, across a
sweep of fault counts.  The recovery layer (heartbeat detection, §4
stream re-delegation, fragment re-homing, replay) must deliver strictly
more distinct results than the no-recovery baseline whenever crashes
were injected, and the acceptance assertion below pins exactly that.
Replay is at-least-once — a failed-over stream's buffer is re-fed whole,
including tuples the dead delegate had already routed — so a result is
counted once per ``(query_id, stream_id, seq)`` key; the duplicates are
printed, not counted as recovered work.
"""

from __future__ import annotations

from repro.bench.reporting import Table, emit, print_header
from repro.core.system import SystemConfig
from repro.live import (
    Chaos,
    ChaosEvent,
    ChaosSettings,
    LiveRuntime,
    LiveSettings,
)
from repro.query.generator import WorkloadConfig, generate_workload
from repro.streams.catalog import stock_catalog

DURATION = 2.0
QUERIES = 24
SEED = 47
FAULT_COUNTS = [1, 2, 3]


def build_runtime(recovery: bool) -> LiveRuntime:
    catalog = stock_catalog(exchanges=2, rate=100.0)
    config = SystemConfig(
        entity_count=4, processors_per_entity=2, seed=SEED
    )
    runtime = LiveRuntime(
        catalog,
        config,
        LiveSettings(duration=DURATION, batch_size=8),
        services=[Chaos(settings=ChaosSettings(recovery=recovery))],
    )
    workload = generate_workload(
        catalog,
        WorkloadConfig(
            query_count=QUERIES, join_fraction=0.0, aggregate_fraction=0.2
        ),
        seed=SEED,
    )
    runtime.submit(workload.queries)
    return runtime


def delegate_victims(runtime: LiveRuntime, count: int) -> list[str]:
    """Processors that are delegates of at least one stream (crashing
    them forces a §4 failover), at most one per entity so a survivor
    always exists."""
    victims = []
    for entity_id in sorted(runtime.planner.entities):
        entity = runtime.planner.entities[entity_id]
        for proc_id in sorted(entity.processors):
            if entity.delegation.delegated_streams(proc_id):
                victims.append(proc_id)
                break
    return victims[:count]


def crash_script(runtime: LiveRuntime, faults: int) -> list[ChaosEvent]:
    victims = delegate_victims(runtime, faults)
    return [
        ChaosEvent(
            at=round(0.3 + 0.15 * index, 4),
            kind="proc_crash",
            target=victim,
        )
        for index, victim in enumerate(victims)
    ]


def result_keys(runtime: LiveRuntime) -> set[tuple[str, str, int]]:
    """Distinct ``(query_id, stream_id, seq)`` keys of the delivered
    results: a replayed tuple's duplicate result adds none."""
    return {
        (query_id, tup.stream_id, tup.seq)
        for query_id, tups in runtime.results.items()
        for tup in tups
    }


def run_pair(faults: int):
    """One recovery-on and one recovery-off run under the same script:
    ``(report, distinct result keys)`` for each."""
    outcomes = {}
    for recovery in (True, False):
        runtime = build_runtime(recovery)
        runtime.service(Chaos).script = crash_script(runtime, faults)
        report = runtime.run()
        outcomes[recovery] = (report, result_keys(runtime))
    return outcomes[True], outcomes[False]


def test_chaos_recovery_benefit():
    results = {}

    def run():
        for faults in FAULT_COUNTS:
            results[faults] = run_pair(faults)
        return results

    run()

    print_header(
        f"E16 — recovery benefit under processor crashes ({QUERIES} "
        f"queries, {DURATION:.0f}s virtual traffic, delegate victims)"
    )
    table = Table(
        [
            "faults",
            "recovery",
            "results",
            "distinct",
            "dupes",
            "drops",
            "failovers",
            "replayed",
            "lost",
            "detect ms",
            "recover ms",
        ]
    )
    for faults, (on, off) in results.items():
        for label, (r, keys) in (("on", on), ("off", off)):
            table.add_row(
                [
                    faults,
                    label,
                    r.results,
                    len(keys),
                    r.results - len(keys),
                    r.dropped_tuples,
                    r.recovery.failovers,
                    r.recovery.tuples_replayed,
                    r.recovery.tuples_lost,
                    r.recovery.mean_detection_delay * 1000,
                    r.recovery.mean_time_to_recover * 1000,
                ]
            )
    table.show()

    for faults, ((on, on_keys), (off, off_keys)) in results.items():
        emit(
            f"{faults} crashes: {len(on_keys)} distinct results with "
            f"recovery vs {len(off_keys)} without "
            f"(+{len(on_keys) - len(off_keys)} recovered; "
            f"{on.results - len(on_keys)} duplicates from replay)"
        )
        # the script actually injected crashes and they were detected
        assert on.recovery.failures_injected == faults
        assert on.recovery.detections == faults
        assert off.recovery.detections == faults
        # recovery re-delegated streams; the baseline repaired nothing
        assert on.recovery.failovers > 0
        assert off.recovery.failovers == 0
        # acceptance: recovery delivers strictly more distinct results
        assert len(on_keys) > len(off_keys)
