"""E14 — coarse monitored load as routing signal (§3.2.1, extension).

"A higher level coordinator distributes queries based on coarser
information."  We give the router two versions of that information:

* *admission history only* — the router's own bookkeeping of estimated
  loads it has assigned (the baseline §3.2.1 sketch);
* *+ measured load* — the monitoring hierarchy's smoothed CPU readings,
  which also see load the admission estimates got wrong.

Half the entities secretly run 4x slower than the estimates assume (a
stand-in for mis-estimated costs or background work).  Queries arrive
online; the bench reports how the achieved utilisation spread and query
performance differ.
"""

from __future__ import annotations

import random

from repro.bench.reporting import Table, emit, print_header
from repro.core.system import FederatedSystem, SystemConfig
from repro.interest.predicates import StreamInterest
from repro.query.spec import QuerySpec
from repro.streams.catalog import stock_catalog

ENTITIES = 6
QUERIES = 36
DURATION = 30.0


def run_once(monitored: bool, seed=19):
    catalog = stock_catalog(exchanges=1, rate=80.0)
    config = SystemConfig(
        entity_count=ENTITIES,
        processors_per_entity=2,
        seed=seed,
        monitoring_interval=1.0 if monitored else None,
    )
    system = FederatedSystem(catalog, config)
    # half the entities are secretly slow: estimates under-count them
    for i, entity in enumerate(system.entities.values()):
        if i % 2 == 0:
            for proc in entity.processors.values():
                proc.speed = 0.25

    rng = random.Random(seed)
    stream = catalog.stream_ids()[0]
    timed = []
    for i in range(QUERIES):
        lo = rng.uniform(1.0, 600.0)
        timed.append(
            (
                0.5 + i * 0.5,
                QuerySpec(
                    query_id=f"q{i}",
                    interests=(
                        StreamInterest.on(stream, price=(lo, lo + 400.0)),
                    ),
                    cost_multiplier=rng.uniform(10.0, 40.0),
                    client_x=rng.random(),
                    client_y=rng.random(),
                ),
            )
        )
    system.submit_over_time(timed)
    report = system.run(DURATION)
    utils = list(report.entity_utilization.values())
    return {
        "util_max": max(utils),
        "util_spread": max(utils) - min(utils),
        "pr_max": report.pr_max,
        "pr_mean": report.pr_mean,
        "answered": report.queries_answered,
    }


def test_monitored_routing():
    results = {}

    def run():
        results["history only"] = run_once(False)
        results["+ measured load"] = run_once(True)
        return results

    run()

    print_header(
        "E14 — online routing signal: admission history vs measured load "
        f"({QUERIES} queries onto {ENTITIES} entities, half secretly 4x slow)"
    )
    table = Table(
        ["signal", "max util", "util spread", "PR_max", "PR_mean", "answered"]
    )
    for name, r in results.items():
        table.add_row(
            [
                name,
                r["util_max"],
                r["util_spread"],
                r["pr_max"],
                r["pr_mean"],
                f'{r["answered"]}/{QUERIES}',
            ]
        )
    table.show()
    emit(
        "measured load steers new queries away from entities whose real "
        "capacity the admission estimates over-stated"
    )

    history = results["history only"]
    measured = results["+ measured load"]
    assert measured["pr_max"] <= history["pr_max"] * 1.05
    assert measured["answered"] >= history["answered"]
