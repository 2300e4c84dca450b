"""Tests for tuple forwarding with early filtering over the network."""

from __future__ import annotations

import pytest

from repro.dissemination.runtime import DisseminationRuntime
from repro.dissemination.tree import SOURCE, DisseminationTree
from repro.interest.predicates import StreamInterest
from repro.simulation.network import Network, NetworkNode
from repro.simulation.simulator import Simulator
from repro.streams.source import StreamSource


def setup(early_filtering=True, chain=True):
    """source -> a -> b chain (or star) with disjoint price interests."""
    sim = Simulator(seed=5)
    net = Network(sim)
    net.add_node(NetworkNode("src", 0.5, 0.5))
    net.add_node(NetworkNode("a", 0.4, 0.5))
    net.add_node(NetworkNode("b", 0.3, 0.5))
    tree = DisseminationTree("ticks", max_fanout=2)
    if chain:
        tree.attach("a", SOURCE)
        tree.attach("b", "a")
    else:
        tree.attach("a", SOURCE)
        tree.attach("b", SOURCE)
    tree.set_interests("a", [StreamInterest.on("ticks", price=(0, 50))])
    tree.set_interests("b", [StreamInterest.on("ticks", price=(60, 100))])
    runtime = DisseminationRuntime(
        sim, net, tree, "src", early_filtering=early_filtering
    )
    return sim, net, tree, runtime


def tick(price, seq=0):
    from repro.streams.tuples import StreamTuple

    return StreamTuple(
        stream_id="ticks",
        seq=seq,
        created_at=0.0,
        values={"price": price},
        size=64.0,
    )


def test_delivery_follows_tree(sim=None):
    sim, net, tree, runtime = setup()
    deliveries = []
    runtime.on_delivery(lambda e, t: deliveries.append((e, t.value("price"))))
    runtime.inject(tick(70.0))
    sim.run()
    # price 70 matches b (and a must relay it)
    assert ("b", 70.0) in deliveries
    assert ("a", 70.0) in deliveries  # relays receive what children need


def test_early_filtering_prunes_unneeded_edges():
    sim, net, tree, runtime = setup()
    deliveries = []
    runtime.on_delivery(lambda e, t: deliveries.append(e))
    runtime.inject(tick(55.0))  # matches neither a nor b
    sim.run()
    assert deliveries == []
    assert runtime.stats.filtered_edges >= 1


def test_forward_all_mode_floods():
    sim, net, tree, runtime = setup(early_filtering=False)
    deliveries = []
    runtime.on_delivery(lambda e, t: deliveries.append(e))
    runtime.inject(tick(55.0))
    sim.run()
    assert sorted(deliveries) == ["a", "b"]


def test_filtering_reduces_bytes_vs_forward_all():
    def run(early):
        sim, net, tree, runtime = setup(early_filtering=early)
        for i in range(50):
            runtime.inject(tick(float(i * 2), seq=i))
        sim.run()
        return net.total_bytes

    assert run(True) < run(False)


def test_latency_measured_per_entity():
    sim, net, tree, runtime = setup()
    runtime.inject(tick(30.0))
    sim.run()
    assert runtime.stats.mean_latency("a") > 0
    assert runtime.stats.tuples["a"] == 1


def test_deeper_entities_pay_more_latency():
    sim, net, tree, runtime = setup()
    runtime.inject(tick(70.0))  # passes through a to b
    sim.run()
    assert runtime.stats.mean_latency("b") > runtime.stats.mean_latency("a")


def test_attach_source_and_stream(simple_schema):
    sim = Simulator(seed=6)
    net = Network(sim)
    net.add_node(NetworkNode("src", 0.5, 0.5))
    net.add_node(NetworkNode("a", 0.4, 0.5))
    tree = DisseminationTree("ticks", max_fanout=2)
    tree.attach("a", SOURCE)
    tree.set_interests("a", [StreamInterest.on("ticks", price=(0, 100))])
    runtime = DisseminationRuntime(sim, net, tree, "src")
    source = StreamSource(sim, simple_schema, poisson=False)
    runtime.attach_source(source)
    source.start()
    sim.run(until=1.0)
    assert runtime.stats.tuples.get("a", 0) > 0


def test_attach_source_stream_mismatch(simple_schema):
    sim = Simulator(seed=7)
    net = Network(sim)
    net.add_node(NetworkNode("src", 0.5, 0.5))
    tree = DisseminationTree("other", max_fanout=2)
    runtime = DisseminationRuntime(sim, net, tree, "src")
    with pytest.raises(ValueError):
        runtime.attach_source(StreamSource(sim, simple_schema))


def test_detach_source_stops_flow(simple_schema):
    sim = Simulator(seed=8)
    net = Network(sim)
    net.add_node(NetworkNode("src", 0.5, 0.5))
    net.add_node(NetworkNode("a", 0.4, 0.5))
    tree = DisseminationTree("ticks", max_fanout=2)
    tree.attach("a", SOURCE)
    tree.set_interests("a", [StreamInterest.on("ticks", price=(0, 100))])
    runtime = DisseminationRuntime(sim, net, tree, "src")
    source = StreamSource(sim, simple_schema, poisson=False)
    runtime.attach_source(source)
    source.start()
    sim.run(until=0.5)
    runtime.detach_source()
    sim.run(until=0.6)  # drain in-flight deliveries
    count = runtime.stats.total_tuples
    sim.run(until=1.5)
    assert runtime.stats.total_tuples == count


def test_total_stats_accumulate():
    sim, net, tree, runtime = setup()
    for i in range(10):
        runtime.inject(tick(10.0, seq=i))
    sim.run()
    assert runtime.stats.total_tuples == 10  # only entity a matches
    assert runtime.stats.total_bytes == pytest.approx(640.0)
