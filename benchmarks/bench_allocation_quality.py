"""E6 — allocation quality: graph partitioning vs online baselines.

Paper claim (§3.2.2): modelling query distribution as weighted graph
partitioning jointly optimises load balance and duplicate transfer,
beating pure load balancing (high cut) and pure similarity clustering
(poor balance).  Sweeps workload size and entity count; also runs the
multilevel ablation (coarsening / refinement off).
"""

from __future__ import annotations

from repro.allocation.assigners import (
    LoadOnlyAssigner,
    RandomAssigner,
    RoundRobinAssigner,
    SimilarityAssigner,
)
from repro.allocation.partitioning import MultilevelPartitioner
from repro.allocation.query_graph import build_query_graph
from repro.bench.reporting import Table, print_header
from repro.query.generator import WorkloadConfig, generate_workload
from repro.streams.catalog import stock_catalog

QUERY_COUNTS = [100, 400, 1000]
ENTITY_COUNT = 8


def build_graph(query_count, seed=51):
    catalog = stock_catalog(exchanges=2, rate=100.0)
    workload = generate_workload(
        catalog,
        WorkloadConfig(query_count=query_count, hot_fraction=0.8),
        seed=seed,
    )
    return build_query_graph(workload.queries, catalog)


def strategies(parts, seed=0):
    return {
        "random": lambda g: RandomAssigner(parts, seed=seed).assign_all(g),
        "round-robin": lambda g: RoundRobinAssigner(parts).assign_all(g),
        "load-only": lambda g: LoadOnlyAssigner(parts).assign_all(g),
        "similarity": lambda g: SimilarityAssigner(parts).assign_all(g),
        "partition (ours)": lambda g: MultilevelPartitioner(
            seed=seed
        ).partition(g, parts).assignment,
    }


def test_allocation_quality_by_workload_size():
    results = {}

    def sweep():
        for count in QUERY_COUNTS:
            graph = build_graph(count)
            results[count] = {}
            for name, run in strategies(ENTITY_COUNT).items():
                assignment = run(graph)
                results[count][name] = (
                    graph.edge_cut(assignment),
                    graph.imbalance(assignment, ENTITY_COUNT),
                )
        return results

    sweep()

    print_header(
        "E6 — allocation quality (duplicate kB/s + imbalance) vs #queries"
    )
    table = Table(["queries", "strategy", "cut kB/s", "imbalance"])
    for count in QUERY_COUNTS:
        for name, (cut, imbalance) in results[count].items():
            table.add_row([count, name, cut / 1e3, imbalance])
    table.show()

    for count in QUERY_COUNTS:
        ours_cut, ours_imb = results[count]["partition (ours)"]
        load_cut, __ = results[count]["load-only"]
        __, sim_imb = results[count]["similarity"]
        assert ours_cut < load_cut
        assert ours_imb <= sim_imb + 1e-9
        assert ours_imb <= 1.2


def test_multilevel_ablation():
    """Coarsening and refinement each contribute to cut quality."""
    variants = {
        "full multilevel": dict(),
        "no refinement": dict(use_refinement=False),
        "no coarsening": dict(use_coarsening=False),
        "greedy only": dict(use_refinement=False, use_coarsening=False),
    }
    results = {}

    def run():
        graph = build_graph(400)
        for name, kwargs in variants.items():
            import time

            started = time.perf_counter()
            out = MultilevelPartitioner(seed=3, **kwargs).partition(
                graph, ENTITY_COUNT
            )
            elapsed = time.perf_counter() - started
            results[name] = (out.cut, out.imbalance, elapsed)
        return results

    run()

    print_header("E6b — multilevel partitioner ablation (400 queries)")
    table = Table(["variant", "cut kB/s", "imbalance", "time ms"])
    for name, (cut, imbalance, elapsed) in results.items():
        table.add_row([name, cut / 1e3, imbalance, elapsed * 1e3])
    table.show()

    assert results["full multilevel"][0] <= results["greedy only"][0]
