"""E4 — early filtering: aggregate-interest pruning at ancestors.

Paper claim (§3.1): forwarding all received data "incurs a lot of
unnecessary data transfer if a child does not require all the data";
expressing data requirements enables "early filtering and transforming
at its ancestors".  We sweep query-interest selectivity and compare WAN
bytes with filtering on vs off, plus the effect of the aggregate's
interval budget (a coarser filter forwards more but is cheaper to ship).
"""

from __future__ import annotations

import random

from repro.bench.reporting import Table, emit, format_series, print_header
from repro.dissemination.builders import build_closest_parent_tree
from repro.dissemination.runtime import DisseminationRuntime
from repro.interest.predicates import StreamInterest
from repro.simulation.network import Network, NetworkNode, wan_topology
from repro.simulation.simulator import Simulator
from repro.streams.catalog import stock_catalog
from repro.streams.source import StreamSource

SELECTIVITIES = [0.05, 0.1, 0.25, 0.5, 1.0]
ENTITIES = 32
DURATION = 4.0


def run_once(selectivity, early_filtering, max_intervals=8, seed=31):
    sim = Simulator(seed=seed)
    net = Network(sim)
    entities = wan_topology(net, ENTITIES)
    net.add_node(NetworkNode("src", 0.5, 0.5, bandwidth_bps=12.5e6))
    catalog = stock_catalog(exchanges=1, rate=150.0)
    schema = catalog.schemas()[0]
    positions = {e.node_id: (e.x, e.y) for e in entities}
    tree = build_closest_parent_tree(
        schema.stream_id, (0.5, 0.5), positions, max_fanout=4
    )
    tree.max_intervals = max_intervals
    price = schema.attribute("price")
    domain = price.hi - price.lo
    width = selectivity * domain
    rng = random.Random(seed)
    for entity in tree.entities:
        lo = rng.uniform(price.lo, price.hi - width)
        tree.set_interests(
            entity,
            [StreamInterest.on(schema.stream_id, price=(lo, lo + width))],
        )
    runtime = DisseminationRuntime(
        sim, net, tree, "src", early_filtering=early_filtering
    )
    source = StreamSource(sim, schema)
    runtime.attach_source(source)
    source.start()
    sim.run(until=DURATION)
    return {
        "wan_bytes": net.total_bytes,
        "deliveries": runtime.stats.total_tuples,
        "filtered_edges": runtime.stats.filtered_edges,
    }


def test_early_filtering_savings():
    results = {}

    def sweep():
        for sel in SELECTIVITIES:
            results[sel] = {
                "on": run_once(sel, True),
                "off": run_once(sel, False),
            }
        return results

    sweep()

    print_header("E4 — early filtering: WAN bytes vs query selectivity")
    table = Table(
        [
            "selectivity",
            "WAN kB (filtered)",
            "WAN kB (forward-all)",
            "saved %",
            "edges pruned",
        ]
    )
    savings = []
    for sel in SELECTIVITIES:
        on = results[sel]["on"]
        off = results[sel]["off"]
        saved = 100.0 * (1 - on["wan_bytes"] / off["wan_bytes"])
        savings.append(saved)
        table.add_row(
            [
                sel,
                on["wan_bytes"] / 1e3,
                off["wan_bytes"] / 1e3,
                saved,
                on["filtered_edges"],
            ]
        )
    table.show()
    emit(format_series("saved%", SELECTIVITIES, savings))

    # narrow interests benefit the most; full-domain interests save nothing
    assert savings[0] > 30.0
    assert savings[0] > savings[-1]
    assert abs(savings[-1]) < 10.0


def test_interval_budget_ablation():
    """Coarser aggregates (smaller interval budget) forward more bytes."""
    budgets = [1, 2, 4, 16]
    results = {}

    def sweep():
        for budget in budgets:
            results[budget] = run_once(0.1, True, max_intervals=budget)
        return results

    sweep()

    print_header("E4b — ablation: aggregate interval budget")
    table = Table(["max intervals", "WAN kB", "deliveries"])
    for budget in budgets:
        table.add_row(
            [budget, results[budget]["wan_bytes"] / 1e3, results[budget]["deliveries"]]
        )
    table.show()
    assert results[16]["wan_bytes"] <= results[1]["wan_bytes"]


def test_transform_at_ancestors():
    """E4c — §3.1 'transforming': ancestors also project attributes.

    Entities declare they only read ``price``; with transform on,
    relays strip the other attributes before forwarding.
    """
    results = {}

    def run_transform(enabled):
        sim = Simulator(seed=33)
        net = Network(sim)
        entities = wan_topology(net, ENTITIES)
        net.add_node(NetworkNode("src", 0.5, 0.5, bandwidth_bps=12.5e6))
        catalog = stock_catalog(exchanges=1, rate=150.0)
        schema = catalog.schemas()[0]
        positions = {e.node_id: (e.x, e.y) for e in entities}
        tree = build_closest_parent_tree(
            schema.stream_id, (0.5, 0.5), positions, max_fanout=4
        )
        rng = random.Random(33)
        for entity in tree.entities:
            lo = rng.uniform(1.0, 800.0)
            tree.set_interests(
                entity,
                [StreamInterest.on(schema.stream_id, price=(lo, lo + 200.0))],
            )
            tree.set_required_attributes(entity, {"price"})
        runtime = DisseminationRuntime(
            sim, net, tree, "src", transform=enabled
        )
        source = StreamSource(sim, schema)
        runtime.attach_source(source)
        source.start()
        sim.run(until=DURATION)
        return {
            "wan_bytes": net.total_bytes,
            "deliveries": runtime.stats.total_tuples,
        }

    def sweep():
        results["filter only"] = run_transform(False)
        results["filter + transform"] = run_transform(True)
        return results

    sweep()

    print_header("E4c — ablation: transforming (projection) at ancestors")
    table = Table(["mode", "WAN kB", "deliveries"])
    for name, r in results.items():
        table.add_row([name, r["wan_bytes"] / 1e3, r["deliveries"]])
    table.show()
    saved = 100.0 * (
        1 - results["filter + transform"]["wan_bytes"]
        / results["filter only"]["wan_bytes"]
    )
    emit(f"projection at ancestors saves a further {saved:.0f}% WAN bytes")
    assert results["filter + transform"]["wan_bytes"] < (
        results["filter only"]["wan_bytes"]
    )
    assert (
        results["filter + transform"]["deliveries"]
        == results["filter only"]["deliveries"]
    )
