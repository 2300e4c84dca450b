"""E12 — end-to-end: the full two-layer system vs an all-baselines stack.

Composes every technique of the paper (cooperative dissemination with
early filtering, partitioning-based allocation, delegation + PR-aware
placement) and compares against the all-baselines configuration
(source-direct transfer, random allocation, whole-query placement) and
two intermediate stacks, on one workload.
"""

from __future__ import annotations

from repro.bench.reporting import Table, emit, print_header
from repro.core.system import FederatedSystem, SystemConfig
from repro.query.generator import WorkloadConfig, generate_workload
from repro.streams.catalog import stock_catalog

ENTITIES = 16
QUERIES = 128
DURATION = 5.0

STACKS = {
    "all baselines": dict(
        dissemination="direct",
        early_filtering=False,
        allocation="random",
        placement="single",
        distribution_limit=1,
    ),
    "+ tree dissemination": dict(
        dissemination="closest",
        early_filtering=False,
        allocation="random",
        placement="single",
        distribution_limit=1,
    ),
    "+ filtering + partition alloc": dict(
        dissemination="closest",
        early_filtering=True,
        allocation="partition",
        placement="single",
        distribution_limit=1,
    ),
    "full system (paper)": dict(
        dissemination="closest",
        early_filtering=True,
        allocation="partition",
        placement="pr",
        distribution_limit=2,
    ),
}


def run_stack(overrides, seed=91):
    catalog = stock_catalog(exchanges=2, rate=100.0)
    config = SystemConfig(
        entity_count=ENTITIES,
        processors_per_entity=3,
        seed=seed,
        **overrides,
    )
    system = FederatedSystem(catalog, config)
    workload = generate_workload(
        catalog,
        WorkloadConfig(query_count=QUERIES, hot_fraction=0.8, join_fraction=0.0),
        seed=seed,
    )
    system.submit(workload.queries)
    return system.run(DURATION)


def test_end_to_end_stacks():
    results = {}

    def run():
        for name, overrides in STACKS.items():
            results[name] = run_stack(overrides)
        return results

    run()

    print_header(
        f"E12 — end-to-end stacks ({ENTITIES} entities x 3 procs, "
        f"{QUERIES} queries, {DURATION:.0f}s)"
    )
    table = Table(
        [
            "stack",
            "src egress kB",
            "WAN kB",
            "alloc cut kB/s",
            "lat ms",
            "PR_max",
            "answered",
        ]
    )
    for name in STACKS:
        r = results[name]
        table.add_row(
            [
                name,
                r.source_egress_bytes / 1e3,
                r.wan_bytes / 1e3,
                r.allocation_cut / 1e3,
                r.mean_result_latency * 1e3,
                r.pr_max,
                f"{r.queries_answered}/{r.queries_total}",
            ]
        )
    table.show()

    base = results["all baselines"]
    full = results["full system (paper)"]
    emit(
        f"full system: source egress x{base.source_egress_bytes / max(1.0, full.source_egress_bytes):.1f} lower, "
        f"allocation cut x{base.allocation_cut / max(1.0, full.allocation_cut):.1f} lower "
        "than the all-baselines stack"
    )
    assert full.source_egress_bytes < base.source_egress_bytes
    assert full.allocation_cut < base.allocation_cut
    assert full.queries_answered >= base.queries_answered * 0.8
