"""E11 — assignment (delegation-aware) vs partitioning (Flux/Borealis).

Paper claim (§5): in Flux and Borealis "all the processors are
identical in terms of the assignment of operator/stream partitions",
whereas "our intra-entity operator placement problem is an assignment
problem (due to the stream delegation scheme), which requires different
solutions".

The scenario that separates the two formulations is a *multi-stream*
entity: delegation spreads eight streams over eight processors, so an
assignment-aware placer can put each query's head fragment on its own
stream's delegate at no cost to balance.  A partitioning-style placer
that treats processors as interchangeable scatters head fragments, and
every misplaced head pays the full stream rate in LAN transfer.
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

PROCESSORS = 8
STREAMS = 8
QUERIES = 40
DURATION = 15.0

MODELS = {
    "assignment (delegation-aware PR placer)": "pr",
    "partitioning (identical processors, RR)": "rr",
    "partitioning (identical processors, load)": "load",
}


def make_queries(catalog, seed=73):
    """Light queries, each over one of the eight streams."""
    rng = random.Random(seed)
    streams = catalog.stream_ids()
    queries = []
    for i in range(QUERIES):
        stream = streams[i % len(streams)]
        lo = rng.uniform(1.0, 700.0)
        queries.append(
            QuerySpec(
                query_id=f"q{i}",
                interests=(
                    StreamInterest.on(stream, price=(lo, lo + 300.0)),
                ),
                aggregate=AggregateSpec(attribute="price", fn="avg", window=1.0),
                project=("avg",),
                cost_multiplier=rng.uniform(2.0, 10.0),
            )
        )
    return queries


def run_model(placer, seed=73):
    sim = Simulator(seed=seed)
    net = Network(sim)
    net.add_node(NetworkNode("e0", 0.5, 0.5, group="e0"))
    nodes = [
        net.add_node(NetworkNode(f"e0/p{i}", tier="lan", group="e0"))
        for i in range(PROCESSORS)
    ]
    catalog = stock_catalog(exchanges=STREAMS, rate=60.0)
    entity = Entity(sim, net, "e0", nodes, catalog)
    tracker = PerformanceTracker()
    for query in make_queries(catalog, seed=seed):
        hosted = entity.host(query)
        tracker.set_complexity(query.query_id, hosted.inherent_complexity)
    entity.deploy(placer=placer, distribution_limit=2, seed=seed)
    entity.result_handler = lambda qid, tup: tracker.record_result(
        qid, sim.now - tup.created_at
    )
    for schema in catalog.schemas():
        source = StreamSource(sim, schema)
        source.subscribe(entity.receive)
        source.start()
    sim.run(until=DURATION)

    heads_on_delegate = 0
    for hosted in entity.hosted.values():
        stream = hosted.spec.input_streams[0]
        if hosted.chain_procs[0] == entity.delegation.delegate_of(stream):
            heads_on_delegate += 1
    return {
        "lan_kb": net.lan_bytes / 1e3,
        "pr_max": tracker.pr_max(),
        "pr_mean": tracker.pr_mean(),
        "answered": tracker.queries_measured,
        "heads_on_delegate": heads_on_delegate,
    }


def test_assignment_vs_partitioning():
    results = {}

    def run():
        for label, placer in MODELS.items():
            results[label] = run_model(placer)
        return results

    run()

    print_header(
        "E11 — assignment vs partitioning formulation "
        f"({QUERIES} queries over {STREAMS} delegated streams, "
        f"{PROCESSORS} processors)"
    )
    table = Table(
        ["model", "heads@delegate", "LAN kB", "PR_max", "PR_mean", "answered"]
    )
    for label in MODELS:
        r = results[label]
        table.add_row(
            [
                label,
                f'{r["heads_on_delegate"]}/{QUERIES}',
                r["lan_kb"],
                r["pr_max"],
                r["pr_mean"],
                f'{r["answered"]}/{QUERIES}',
            ]
        )
    table.show()

    ours = results["assignment (delegation-aware PR placer)"]
    flux_rr = results["partitioning (identical processors, RR)"]
    flux_load = results["partitioning (identical processors, load)"]
    emit(
        f"delegation-aware assignment moves {ours['lan_kb']:.0f} kB over the "
        f"LAN vs {flux_rr['lan_kb']:.0f} kB (RR) / "
        f"{flux_load['lan_kb']:.0f} kB (load-only) for delegation-blind "
        "partitioning"
    )
    assert ours["heads_on_delegate"] > flux_rr["heads_on_delegate"]
    assert ours["lan_kb"] < flux_rr["lan_kb"]
    assert ours["lan_kb"] < flux_load["lan_kb"]
