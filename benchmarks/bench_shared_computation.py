"""E20 — multi-query shared computation: CPU per delivered result.

The sharing workload submits ``query_count`` colocated queries of which
an ``overlap`` fraction carry the *identical* leading filter on the hot
stream (private projection suffixes keep the queries distinct).  Each
overlap factor runs twice on the same seed — once with
``shared_execution`` off (every query evaluates its own filter) and
once with the shared-computation optimizer on (one shared prefix
fragment, per-query taps) — and the figure of merit is the ratio of
**CPU seconds per delivered result**: total simulated processor busy
time divided by result count, unshared over shared.

At zero overlap the rewrite finds nothing and the ratio must stay ~1
(no overhead regression); at overlap 0.8 eight identical filters
collapse into one, so the shared run spends a fraction of the CPU for
the bit-identical result set — the acceptance bar is >= 1.8x.  The
filter cost multiplier makes the shared prefix the dominant CPU term,
matching the regime the optimizer targets (expensive predicates fanned
across many subscribers).
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.reporting import Table, emit, print_header
from repro.core.system import FederatedSystem
from repro.workloads import sharing_workload

SEED = 0
DURATION = 4.0
RATE = 120.0
QUERY_COUNT = 10
FILTER_COST_MULTIPLIER = 8.0  # expensive predicate: the sharing target
OVERLAPS = (0.0, 0.4, 0.8)


def run_leg(overlap: float, shared: bool):
    """One measured run; returns (result_keys, cpu_s, group_count)."""
    catalog, config, queries = sharing_workload(
        SEED,
        overlap=overlap,
        query_count=QUERY_COUNT,
        rate=RATE,
        filter_cost_multiplier=FILTER_COST_MULTIPLIER,
    )
    system = FederatedSystem(catalog, replace(config, shared_execution=shared))
    system.submit(queries)
    results = system.collect_results()
    system.run(duration=DURATION)
    system.sim.run()  # drain every queued tuple
    cpu = sum(
        proc.stats.busy_time
        for entity in system.entities.values()
        for proc in entity.processors.values()
    )
    groups = sum(len(entity.shared) for entity in system.entities.values())
    keys = {
        (query_id, tup.stream_id, tup.seq)
        for query_id, tuples in results.items()
        for tup in tuples
    }
    return keys, cpu, groups


def test_shared_computation_cpu_per_result():
    legs = {}

    def run():
        for overlap in OVERLAPS:
            legs[overlap] = {
                shared: run_leg(overlap, shared) for shared in (False, True)
            }
        return legs

    run()

    print_header(
        "E20 — shared computation across colocated queries "
        f"({QUERY_COUNT} queries, {DURATION:.0f}s virtual traffic, "
        f"filter cost x{FILTER_COST_MULTIPLIER:.0f})"
    )
    table = Table(
        [
            "overlap",
            "results",
            "groups",
            "cpu unshared [s]",
            "cpu shared [s]",
            "cpu/result ratio",
        ]
    )
    ratios = {}
    for overlap in OVERLAPS:
        keys_u, cpu_u, __ = legs[overlap][False]
        keys_s, cpu_s, groups = legs[overlap][True]
        # the equivalence contract: sharing never changes the result set
        assert keys_u, f"overlap {overlap}: the workload produced no results"
        assert keys_s == keys_u, (
            f"overlap {overlap}: sharing changed the result set"
        )
        ratio = (cpu_u / len(keys_u)) / (cpu_s / len(keys_s))
        ratios[overlap] = ratio
        table.add_row([overlap, len(keys_u), groups, cpu_u, cpu_s, ratio])
    table.show()
    emit(
        f"cpu/result improves {ratios[0.8]:.2f}x at overlap 0.8 "
        f"({ratios[0.0]:.2f}x at 0.0 — the no-overlap run pays no tax)"
    )

    # a fully disjoint workload forms no groups and must not regress
    assert legs[0.0][True][2] == 0
    assert ratios[0.0] >= 0.95
    # the acceptance bar: >= 1.8x CPU per delivered result at 0.8 overlap
    assert ratios[0.8] >= 1.8
