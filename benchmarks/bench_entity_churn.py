"""E13 — federation resilience under entity churn (§3.2.1, extension).

Paper claim: "entities may join or leave at any time which is out of
control even without failure"; the loosely coupled design must absorb
this.  A 10-entity federation runs 30 s while entities join, leave
gracefully, and crash; the bench reports query re-homing volume, result
continuity, and coordinator-tree health.
"""

from __future__ import annotations

from repro.bench.reporting import Table, emit, print_header
from repro.core.system import FederatedSystem, SystemConfig
from repro.query.generator import WorkloadConfig, generate_workload
from repro.streams.catalog import stock_catalog

ENTITIES = 10
QUERIES = 60
PHASE = 5.0  # seconds between churn events


def run_churn():
    catalog = stock_catalog(exchanges=2, rate=80.0)
    system = FederatedSystem(
        catalog,
        SystemConfig(entity_count=ENTITIES, processors_per_entity=2, seed=7),
    )
    workload = generate_workload(
        catalog, WorkloadConfig(query_count=QUERIES, join_fraction=0.0), seed=7
    )
    system.submit(workload.queries)

    timeline = []

    def snapshot(label):
        timeline.append(
            {
                "event": label,
                "t": system.sim.now,
                "entities": len(system.entities),
                "results": system.tracker.total_results,
                "rehomed": system.rehomed_queries,
                "tree_ok": system.portal.tree.check_invariants() == [],
            }
        )

    snapshot("start")
    system.run(PHASE)
    victim = max(system.entities, key=lambda e: system.entities[e].query_count)
    system.remove_entity(victim)
    snapshot("graceful leave")
    system.run(PHASE)
    system.add_entity()
    snapshot("join")
    system.run(PHASE)
    victim = max(system.entities, key=lambda e: system.entities[e].query_count)
    system.crash_entity(victim, detection_delay=2.0)
    snapshot("crash (undetected)")
    system.run(PHASE)
    snapshot("crash repaired")
    system.run(PHASE)
    snapshot("end")
    return system, timeline


def test_entity_churn_resilience():
    holder = {}

    def run():
        holder["system"], holder["timeline"] = run_churn()
        return holder

    run()
    system, timeline = holder["system"], holder["timeline"]

    print_header("E13 — entity churn: leave, join, crash over 25 s")
    table = Table(
        ["event", "t", "entities", "results so far", "rehomed", "tree ok"]
    )
    for row in timeline:
        table.add_row(
            [
                row["event"],
                row["t"],
                row["entities"],
                row["results"],
                row["rehomed"],
                row["tree_ok"],
            ]
        )
    table.show()
    emit(
        f"{system.rehomed_queries} query re-homings; "
        f"{system.network.dropped_messages} messages dropped during the "
        "undetected-crash window"
    )

    assert all(row["tree_ok"] for row in timeline)
    assert system.rehomed_queries > 0
    # results keep accumulating in every phase after repair
    results = [row["results"] for row in timeline]
    assert results[-1] > results[-2] > results[0]
