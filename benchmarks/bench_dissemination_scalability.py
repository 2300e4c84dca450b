"""E3 — dissemination scalability: cooperative trees vs source-direct.

Paper claim (§3.1): "relying solely on the sources to transfer data is
not scalable to the number of entities"; organising entities into
hierarchical trees bounds each node's transfer duty.  We sweep the
entity count and report source egress (the scalability bottleneck),
total WAN bytes, and mean delivery latency for each tree builder.
"""

from __future__ import annotations

import random

from repro.bench.reporting import Table, emit, format_series, print_header
from repro.dissemination.builders import (
    build_balanced_tree,
    build_closest_parent_tree,
    build_source_direct_tree,
)
from repro.dissemination.runtime import DisseminationRuntime
from repro.interest.predicates import StreamInterest
from repro.simulation.network import Network, NetworkNode, wan_topology
from repro.simulation.simulator import Simulator
from repro.streams.catalog import stock_catalog
from repro.streams.source import StreamSource

ENTITY_COUNTS = [8, 16, 32, 64, 128]
DURATION = 5.0
BUILDERS = {
    "source-direct": lambda sid, pos, entities: build_source_direct_tree(
        sid, pos, entities
    ),
    "closest-parent": lambda sid, pos, entities: build_closest_parent_tree(
        sid, pos, entities, max_fanout=4
    ),
    "balanced-kary": lambda sid, pos, entities: build_balanced_tree(
        sid, pos, entities, max_fanout=4
    ),
}


def run_once(builder_name, entity_count, seed=21):
    sim = Simulator(seed=seed)
    net = Network(sim)
    entities = wan_topology(net, entity_count)
    net.add_node(NetworkNode("src", 0.5, 0.5, bandwidth_bps=12.5e6))
    catalog = stock_catalog(exchanges=1, rate=120.0)
    schema = catalog.schemas()[0]
    positions = {e.node_id: (e.x, e.y) for e in entities}
    tree = BUILDERS[builder_name](schema.stream_id, (0.5, 0.5), positions)
    rng = random.Random(seed)
    for entity in tree.entities:
        lo = rng.uniform(1.0, 800.0)
        tree.set_interests(
            entity,
            [StreamInterest.on(schema.stream_id, price=(lo, lo + 150.0))],
        )
    runtime = DisseminationRuntime(sim, net, tree, "src")
    source = StreamSource(sim, schema)
    runtime.attach_source(source)
    source.start()
    sim.run(until=DURATION)
    interested = [e for e in tree.entities if runtime.stats.tuples.get(e)]
    mean_latency = (
        sum(runtime.stats.mean_latency(e) for e in interested) / len(interested)
        if interested
        else 0.0
    )
    return {
        "source_egress": net.egress_bytes("src"),
        "wan_bytes": net.total_bytes,
        "mean_latency": mean_latency,
        "max_node_egress": max(
            (net.egress_bytes(e.node_id) for e in entities), default=0.0
        ),
    }


def test_dissemination_scalability():
    results: dict[str, dict[int, dict]] = {}

    def sweep():
        for name in BUILDERS:
            results[name] = {}
            for count in ENTITY_COUNTS:
                results[name][count] = run_once(name, count)
        return results

    sweep()

    print_header("E3 — dissemination scalability vs number of entities")
    table = Table(
        ["builder", "entities", "src egress kB", "total WAN kB", "lat ms"]
    )
    for name in BUILDERS:
        for count in ENTITY_COUNTS:
            r = results[name][count]
            table.add_row(
                [
                    name,
                    count,
                    r["source_egress"] / 1e3,
                    r["wan_bytes"] / 1e3,
                    r["mean_latency"] * 1e3,
                ]
            )
    table.show()
    for name in BUILDERS:
        emit(
            format_series(
                f"src-egress({name})",
                ENTITY_COUNTS,
                [results[name][c]["source_egress"] / 1e3 for c in ENTITY_COUNTS],
                unit="kB",
            )
        )

    # shape check: direct egress grows ~linearly; cooperative stays bounded
    direct = results["source-direct"]
    coop = results["closest-parent"]
    growth_direct = (
        direct[ENTITY_COUNTS[-1]]["source_egress"]
        / max(1.0, direct[ENTITY_COUNTS[0]]["source_egress"])
    )
    growth_coop = (
        coop[ENTITY_COUNTS[-1]]["source_egress"]
        / max(1.0, coop[ENTITY_COUNTS[0]]["source_egress"])
    )
    emit(
        f"source egress growth x{growth_direct:.1f} (direct) vs "
        f"x{growth_coop:.1f} (cooperative) over a "
        f"{ENTITY_COUNTS[-1] // ENTITY_COUNTS[0]}x entity increase"
    )
    assert growth_coop < growth_direct
    assert (
        coop[ENTITY_COUNTS[-1]]["source_egress"]
        < direct[ENTITY_COUNTS[-1]]["source_egress"]
    )
