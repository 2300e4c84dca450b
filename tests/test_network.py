"""Tests for the simulated network: latency model, transfers, accounting."""

from __future__ import annotations

import math

import pytest

from repro.simulation.network import (
    Network,
    NetworkNode,
    UnknownNodeError,
    lan_topology,
    two_tier_topology,
    wan_topology,
)


def make_pair(network):
    a = network.add_node(NetworkNode("a", 0.0, 0.0, bandwidth_bps=1000.0))
    b = network.add_node(NetworkNode("b", 1.0, 0.0, bandwidth_bps=1000.0))
    return a, b


def test_latency_same_node_is_zero(network):
    make_pair(network)
    assert network.latency("a", "a") == 0.0


def test_wan_latency_grows_with_distance(network):
    make_pair(network)
    network.add_node(NetworkNode("c", 3.0, 0.0))
    assert network.latency("a", "c") > network.latency("a", "b")


def test_wan_latency_formula(network):
    make_pair(network)
    expected = network.wan_base_latency + 1.0 * network.wan_latency_per_unit
    assert network.latency("a", "b") == pytest.approx(expected)


def test_lan_latency_for_same_group(network):
    network.add_node(NetworkNode("p1", tier="lan", group="e0"))
    network.add_node(NetworkNode("p2", tier="lan", group="e0"))
    assert network.latency("p1", "p2") == network.lan_latency


def test_different_groups_pay_wan_latency(network):
    network.add_node(NetworkNode("p1", tier="lan", group="e0"))
    network.add_node(NetworkNode("p2", tier="lan", group="e1"))
    assert network.latency("p1", "p2") >= network.wan_base_latency


def test_gateway_shares_lan_with_its_processors(network):
    network.add_node(NetworkNode("e0", 0.3, 0.3, group="e0"))
    network.add_node(NetworkNode("e0/proc-0", tier="lan", group="e0"))
    assert network.latency("e0", "e0/proc-0") == network.lan_latency


def test_transfer_time_includes_serialisation(network):
    make_pair(network)
    latency = network.latency("a", "b")
    assert network.transfer_time("a", "b", 500.0) == pytest.approx(
        latency + 0.5
    )


def test_send_delivers_payload(sim, network):
    make_pair(network)
    got = []
    network.send("a", "b", 100.0, payload="hello", on_delivery=got.append)
    sim.run()
    assert got == ["hello"]


def test_send_accounts_bytes_and_messages(sim, network):
    make_pair(network)
    network.send("a", "b", 100.0)
    network.send("a", "b", 50.0)
    assert network.total_messages == 2
    assert network.total_bytes == 150.0
    assert network.link_stats("a", "b").messages == 2
    assert network.link_stats("b", "a").messages == 0


def test_link_is_fifo_and_links_are_independent(sim, network):
    """A small message cannot overtake a large one sent before it on the
    same directed link; another link does not wait behind it."""
    make_pair(network)
    network.add_node(NetworkNode("c", 1.0, 0.0, bandwidth_bps=1000.0))
    got = []

    def deliver(payload):
        got.append((payload, sim.now))

    network.send("a", "b", 10_000.0, payload="large", on_delivery=deliver)
    network.send("a", "b", 16.0, payload="small", on_delivery=deliver)
    network.send("a", "c", 16.0, payload="other", on_delivery=deliver)
    sim.run()
    large_at = network.transfer_time("a", "b", 10_000.0)
    assert got == [
        ("other", network.transfer_time("a", "c", 16.0)),
        ("large", large_at),
        ("small", large_at),
    ]


def test_send_to_dead_node_drops(sim, network):
    __, b = make_pair(network)
    b.alive = False
    got = []
    delay = network.send("a", "b", 10.0, on_delivery=got.append)
    sim.run()
    assert got == []
    assert math.isinf(delay)
    assert network.dropped_messages == 1


def test_node_dying_in_flight_drops_delivery(sim, network):
    __, b = make_pair(network)
    got = []
    network.send("a", "b", 10.0, on_delivery=got.append)
    b.alive = False
    sim.run()
    assert got == []
    assert network.dropped_messages == 1


def test_unknown_node_raises(network):
    with pytest.raises(UnknownNodeError):
        network.latency("ghost", "ghost2")


def test_egress_ingress_accounting(sim, network):
    make_pair(network)
    network.add_node(NetworkNode("c", 0.5, 0.5))
    network.send("a", "b", 100.0)
    network.send("a", "c", 50.0)
    network.send("c", "b", 25.0)
    assert network.egress_bytes("a") == 150.0
    assert network.ingress_bytes("b") == 125.0


def test_wan_vs_lan_byte_split(sim, network):
    network.add_node(NetworkNode("p1", tier="lan", group="g"))
    network.add_node(NetworkNode("p2", tier="lan", group="g"))
    make_pair(network)
    network.send("p1", "p2", 10.0)
    network.send("a", "b", 20.0)
    assert network.lan_bytes == 10.0
    assert network.wan_bytes == 20.0


def test_wan_topology_positions_within_extent(network):
    nodes = wan_topology(network, 10, extent=2.0)
    assert len(nodes) == 10
    for node in nodes:
        assert 0.0 <= node.x <= 2.0
        assert 0.0 <= node.y <= 2.0


def test_wan_topology_deterministic_per_seed():
    from repro.simulation.simulator import Simulator

    def build(seed):
        net = Network(Simulator(seed=seed))
        return [(n.x, n.y) for n in wan_topology(net, 5)]

    assert build(9) == build(9)
    assert build(9) != build(10)


def test_lan_topology_shares_group(network):
    nodes = lan_topology(network, 4, group="entity-0")
    assert all(n.group == "entity-0" for n in nodes)
    assert network.latency(nodes[0].node_id, nodes[1].node_id) == (
        network.lan_latency
    )


def test_two_tier_topology_structure(network):
    clusters = two_tier_topology(network, 3, 4)
    assert len(clusters) == 3
    for gateway_id, procs in clusters.items():
        assert len(procs) == 4
        gateway = network.node(gateway_id)
        assert gateway.group == gateway_id
        for proc in procs:
            assert proc.group == gateway_id
            # processors inherit the gateway position
            assert proc.x == gateway.x and proc.y == gateway.y


def test_remove_node(network):
    make_pair(network)
    network.remove_node("a")
    assert not network.has_node("a")
    assert network.has_node("b")
