"""Tests for §3.1 "transforming" — attribute projection at ancestors."""

from __future__ import annotations

from repro.core.system import FederatedSystem, SystemConfig
from repro.dissemination.runtime import DisseminationRuntime
from repro.dissemination.tree import SOURCE, DisseminationTree
from repro.interest.predicates import StreamInterest
from repro.query.spec import AggregateSpec, JoinSpec, QuerySpec
from repro.simulation.network import Network, NetworkNode
from repro.simulation.simulator import Simulator
from repro.streams.catalog import stock_catalog
from repro.streams.tuples import StreamTuple


# ----------------------------------------------------------------------
# QuerySpec.required_attributes
# ----------------------------------------------------------------------
def stream_of(stocks):
    return stocks.stream_ids()[0]


def test_required_attributes_select_star_is_all(stocks):
    spec = QuerySpec(
        "q", (StreamInterest.on(stream_of(stocks), price=(0, 1)),)
    )
    assert spec.required_attributes(stream_of(stocks)) is None


def test_required_attributes_with_projection(stocks):
    spec = QuerySpec(
        "q",
        (StreamInterest.on(stream_of(stocks), price=(0, 1)),),
        project=("volume",),
    )
    assert spec.required_attributes(stream_of(stocks)) == {"price", "volume"}


def test_required_attributes_with_aggregate(stocks):
    spec = QuerySpec(
        "q",
        (StreamInterest.on(stream_of(stocks), price=(0, 1)),),
        aggregate=AggregateSpec(attribute="volume", group_by="symbol"),
    )
    assert spec.required_attributes(stream_of(stocks)) == {
        "price",
        "volume",
        "symbol",
    }


def test_required_attributes_join_includes_key(stocks):
    s0, s1 = stocks.stream_ids()
    spec = QuerySpec(
        "q",
        (
            StreamInterest.on(s0, price=(0, 1)),
            StreamInterest.on(s1, volume=(0, 1)),
        ),
        join=JoinSpec(attribute="symbol"),
    )
    # join outputs carry raw tuples, so without projection all attrs
    # are needed; add a projection to narrow
    assert spec.required_attributes(s0) is None


def test_required_attributes_foreign_stream_empty(stocks):
    spec = QuerySpec(
        "q", (StreamInterest.on(stream_of(stocks), price=(0, 1)),)
    )
    assert spec.required_attributes("other-stream") == set()


# ----------------------------------------------------------------------
# Tree subtree attributes
# ----------------------------------------------------------------------
def test_subtree_attributes_union_and_none_dominance():
    tree = DisseminationTree("s", max_fanout=2)
    tree.attach("a", SOURCE)
    tree.attach("b", "a")
    tree.set_interests("a", [StreamInterest.on("s", x=(0, 1))])
    tree.set_interests("b", [StreamInterest.on("s", y=(0, 1))])
    tree.set_required_attributes("a", {"x"})
    tree.set_required_attributes("b", {"y", "z"})
    assert tree.subtree_attributes("a") == {"x", "y", "z"}
    assert tree.subtree_attributes("b") == {"y", "z"}
    tree.set_required_attributes("b", None)
    assert tree.subtree_attributes("a") is None


def test_undeclared_entity_defaults_to_all():
    tree = DisseminationTree("s", max_fanout=2)
    tree.attach("a", SOURCE)
    tree.set_interests("a", [StreamInterest.on("s", x=(0, 1))])
    assert tree.subtree_attributes("a") is None


# ----------------------------------------------------------------------
# Runtime projection
# ----------------------------------------------------------------------
def run_chain(transform):
    sim = Simulator(seed=9)
    net = Network(sim)
    net.add_node(NetworkNode("src", 0.5, 0.5))
    net.add_node(NetworkNode("a", 0.4, 0.5))
    net.add_node(NetworkNode("b", 0.3, 0.5))
    tree = DisseminationTree("ticks", max_fanout=2)
    tree.attach("a", SOURCE)
    tree.attach("b", "a")
    tree.set_interests("a", [StreamInterest.on("ticks", price=(0, 100))])
    tree.set_interests("b", [StreamInterest.on("ticks", price=(0, 100))])
    tree.set_required_attributes("a", {"price"})
    tree.set_required_attributes("b", {"price"})
    runtime = DisseminationRuntime(
        sim, net, tree, "src", transform=transform
    )
    got = []
    runtime.on_delivery(lambda e, t: got.append((e, t)))
    tup = StreamTuple(
        "ticks", 0, 0.0,
        {"price": 10.0, "volume": 5.0, "symbol": 3.0}, 48.0,
    )
    runtime.inject(tup)
    sim.run()
    return net, dict(got)


def test_transform_projects_and_shrinks():
    net, got = run_chain(transform=True)
    delivered = got["b"]
    assert set(delivered.values) == {"price"}
    assert delivered.size == 8.0


def test_no_transform_keeps_everything():
    net, got = run_chain(transform=False)
    assert set(got["b"].values) == {"price", "volume", "symbol"}


def test_transform_reduces_network_bytes():
    net_on, __ = run_chain(transform=True)
    net_off, __ = run_chain(transform=False)
    assert net_on.total_bytes < net_off.total_bytes


# ----------------------------------------------------------------------
# End-to-end through the system
# ----------------------------------------------------------------------
def test_system_transform_saves_wan_and_answers_queries():
    def run(transform):
        catalog = stock_catalog(exchanges=1, rate=80.0)
        stream = catalog.stream_ids()[0]
        system = FederatedSystem(
            catalog,
            SystemConfig(
                entity_count=4,
                processors_per_entity=2,
                seed=8,
                transform_at_ancestors=transform,
            ),
        )
        queries = [
            QuerySpec(
                query_id=f"q{i}",
                interests=(
                    StreamInterest.on(stream, price=(i * 80.0, i * 80.0 + 200.0)),
                ),
                aggregate=AggregateSpec(attribute="price", fn="avg", window=1.0),
                project=("avg",),
            )
            for i in range(8)
        ]
        system.submit(queries)
        return system.run(4.0)

    on = run(True)
    off = run(False)
    assert on.wan_bytes < off.wan_bytes
    assert on.queries_answered == off.queries_answered
