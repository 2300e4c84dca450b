"""E9 — intra-entity operator placement: minimising PR_max (§4.1).

Paper objective: "minimize the worst relative performance among all the
queries, i.e. PR_max".  A single entity with 10 processors hosts a mix
of light and heavy queries; each placement strategy deploys the same
workload and the run measures the achieved Performance Ratios.  Also
sweeps the distribution limit (heuristic 2).
"""

from __future__ import annotations

import random

from repro.bench.reporting import Table, emit, print_header
from repro.core.entity import Entity
from repro.interest.predicates import StreamInterest
from repro.placement.performance_ratio import PerformanceTracker
from repro.query.spec import AggregateSpec, QuerySpec
from repro.simulation.network import Network, NetworkNode
from repro.simulation.simulator import Simulator
from repro.streams.catalog import stock_catalog
from repro.streams.source import StreamSource

PLACERS = ["pr", "load", "single", "rr", "random"]
PROCESSORS = 10
QUERIES = 32
DURATION = 20.0


def make_queries(catalog, seed=71, heavy_count=3):
    """A mix where heavy queries exceed one processor's capacity.

    Three heavy analytics queries (broad interest, high inherent
    complexity — each alone overloads a single processor, but its
    pipeline splits into two sub-capacity fragments) plus light watch
    queries.  Whole-query placement must saturate wherever a heavy
    query lands; fragment-level placement need not.
    """
    rng = random.Random(seed)
    stream = catalog.stream_ids()[0]
    queries = []
    for i in range(QUERIES):
        heavy = i < heavy_count
        if heavy:
            lo, hi = 1.0, 900.0  # broad: downstream operators stay hot
            multiplier = rng.uniform(160.0, 190.0)
        else:
            lo = rng.uniform(1.0, 700.0)
            hi = lo + 300.0
            multiplier = rng.uniform(2.0, 12.0)
        queries.append(
            QuerySpec(
                query_id=f"q{i}",
                interests=(StreamInterest.on(stream, price=(lo, hi)),),
                aggregate=AggregateSpec(attribute="price", fn="avg", window=1.0),
                project=("avg",),
                cost_multiplier=multiplier,
            )
        )
    return queries


def run_placement(placer, distribution_limit=2, seed=71, heavy_count=3):
    sim = Simulator(seed=seed)
    net = Network(sim)
    net.add_node(NetworkNode("e0", 0.5, 0.5, group="e0"))
    nodes = [
        net.add_node(
            NetworkNode(f"e0/p{i}", tier="lan", group="e0", x=0.5, y=0.5)
        )
        for i in range(PROCESSORS)
    ]
    catalog = stock_catalog(exchanges=1, rate=100.0)
    entity = Entity(sim, net, "e0", nodes, catalog)
    tracker = PerformanceTracker()
    for query in make_queries(catalog, seed=seed, heavy_count=heavy_count):
        hosted = entity.host(query)
        tracker.set_complexity(query.query_id, hosted.inherent_complexity)
    entity.deploy(placer=placer, distribution_limit=distribution_limit, seed=seed)
    entity.result_handler = lambda qid, tup: tracker.record_result(
        qid, sim.now - tup.created_at
    )
    source = StreamSource(sim, catalog.schemas()[0])
    source.subscribe(entity.receive)
    source.start()
    sim.run(until=DURATION)
    utils = entity.utilizations(DURATION)
    mean_util = sum(utils.values()) / len(utils)
    imbalance = max(utils.values()) / mean_util if mean_util > 0 else 1.0
    return {
        "pr_max": tracker.pr_max(),
        "pr_mean": tracker.pr_mean(),
        "answered": tracker.queries_measured,
        "lan_kb": net.lan_bytes / 1e3,
        "util_imbalance": imbalance,
    }


def test_placement_strategies():
    results = {}

    def run():
        for placer in PLACERS:
            results[placer] = run_placement(placer)
        return results

    run()

    print_header(
        f"E9 — placement vs PR ({QUERIES} queries, {PROCESSORS} processors)"
    )
    table = Table(
        ["placer", "PR_max", "PR_mean", "answered", "LAN kB", "util imbal"]
    )
    for placer in PLACERS:
        r = results[placer]
        table.add_row(
            [
                placer,
                r["pr_max"],
                r["pr_mean"],
                f'{r["answered"]}/{QUERIES}',
                r["lan_kb"],
                r["util_imbalance"],
            ]
        )
    table.show()

    # the PR-aware placer should beat random and whole-query placement
    assert results["pr"]["pr_max"] <= results["random"]["pr_max"]
    assert results["pr"]["pr_max"] <= results["single"]["pr_max"] * 1.5


def test_distribution_limit_ablation():
    limits = [1, 2, 4, 8]
    results = {}

    def run():
        for limit in limits:
            results[limit] = run_placement("pr", distribution_limit=limit)
        return results

    run()

    print_header("E9b — ablation: distribution limit (heuristic 2)")
    table = Table(["limit", "PR_max", "PR_mean", "LAN kB"])
    for limit in limits:
        r = results[limit]
        table.add_row([limit, r["pr_max"], r["pr_mean"], r["lan_kb"]])
    table.show()
    emit(
        "larger limits spread load but add LAN hops; the paper bounds the "
        "spread per query to cap communication overhead"
    )
    # more spread => at least as much LAN traffic
    assert results[8]["lan_kb"] >= results[1]["lan_kb"]
