"""Tests for the dissemination tree structure and edge filters."""

from __future__ import annotations

import pytest

from repro.dissemination.tree import SOURCE, DisseminationTree, TreeStructureError
from repro.interest.predicates import StreamInterest
from repro.streams.tuples import StreamTuple


@pytest.fixture
def tree():
    t = DisseminationTree("s", max_fanout=2)
    t.attach("a", SOURCE)
    t.attach("b", SOURCE)
    t.attach("c", "a")
    t.attach("d", "a")
    return t


def test_structure(tree):
    assert tree.parent_of("c") == "a"
    assert sorted(tree.children_of("a")) == ["c", "d"]
    assert tree.depth_of("a") == 1
    assert tree.depth_of("c") == 2
    assert sorted(tree.entities) == ["a", "b", "c", "d"]


def test_fanout_enforced(tree):
    with pytest.raises(TreeStructureError):
        tree.attach("e", "a")  # a already has 2 children


def test_source_fanout_enforced(tree):
    with pytest.raises(TreeStructureError):
        tree.attach("e", SOURCE)


def test_attach_duplicate_rejected(tree):
    with pytest.raises(TreeStructureError):
        tree.attach("a", SOURCE)


def test_attach_to_unknown_parent_rejected(tree):
    with pytest.raises(TreeStructureError):
        tree.attach("e", "ghost")


def test_detach_reattaches_children(tree):
    tree.detach("a")
    assert tree.parent_of("c") == SOURCE
    assert tree.parent_of("d") == SOURCE
    assert not tree.contains("a")


def test_reattach_moves_subtree(tree):
    tree.reattach("c", "b")
    assert tree.parent_of("c") == "b"


def test_reattach_cycle_rejected(tree):
    with pytest.raises(TreeStructureError):
        tree.reattach("a", "c")  # c is a's descendant
    with pytest.raises(TreeStructureError):
        tree.reattach("a", "a")


def test_reattach_full_parent_rejected(tree):
    with pytest.raises(TreeStructureError):
        tree.reattach("b", "a")


def test_is_descendant(tree):
    assert tree.is_descendant("c", "a")
    assert not tree.is_descendant("a", "c")
    assert not tree.is_descendant("b", "a")


def test_max_fanout_validation():
    with pytest.raises(ValueError):
        DisseminationTree("s", max_fanout=0)


# ----------------------------------------------------------------------
# Interests and subtree filters
# ----------------------------------------------------------------------
def test_subtree_filter_aggregates_descendants(tree):
    tree.set_interests("a", [StreamInterest.on("s", price=(0, 10))])
    tree.set_interests("c", [StreamInterest.on("s", price=(50, 60))])
    # edge into a's subtree must pass both a's and c's needs
    assert tree.needs_tuple("a", {"price": 5})
    assert tree.needs_tuple("a", {"price": 55})
    assert not tree.needs_tuple("a", {"price": 30})
    # edge from a into c only needs c's interest
    assert tree.needs_tuple("c", {"price": 55})
    assert not tree.needs_tuple("c", {"price": 5})
    # the batch kernel keeps exactly the tuples needs_tuple would, in order
    batch = [
        StreamTuple("s", seq, 0.0, {"price": price}, 64.0)
        for seq, price in enumerate([5.0, 30.0, 55.0, 70.0, 8.0])
    ]
    for entity in ("a", "c"):
        assert tree.filter_batch(entity, batch) == [
            t for t in batch if tree.needs_tuple(entity, t.values)
        ]


def test_route_is_filter_then_projection_per_child(tree):
    """``route`` ≡ per child ``[project(t) for t in run if needs_tuple]``,
    over early filtering x transforming, for every edge of the tree."""
    tree.set_interests("a", [StreamInterest.on("s", price=(0, 10))])
    tree.set_interests("c", [StreamInterest.on("s", price=(50, 60))])
    tree.set_required_attributes("a", {"price"})
    tree.set_required_attributes("c", {"price", "volume"})
    tree.set_required_attributes("d", {"symbol"})  # d needs no tuple at all
    run = [
        StreamTuple("s", seq, 0.0, {"price": price, "volume": 1.0, "x": 2.0}, 64.0)
        for seq, price in enumerate([5.0, 30.0, 55.0, 70.0, 8.0])
    ]

    def project(child, tup):
        needed = tree.subtree_attributes(child)
        if needed is None:
            return tup
        kept = [name for name in tup.values if name in needed]
        if not kept or len(kept) == len(tup.values):
            return tup
        return tup.project(kept, size=8.0 * len(kept))

    for early in (False, True):
        for transform in (False, True):
            for node in (SOURCE, "a", "c", "not-in-the-tree"):
                assert tree.route(node, run, early, transform) == [
                    (
                        child,
                        [
                            project(child, t) if transform else t
                            for t in run
                            if not early or tree.needs_tuple(child, t.values)
                        ],
                    )
                    for child in tree.children_of(node)
                ]
    # the cases by name: b's subtree needs nothing; a's edge projects to
    # its subtree's {price, volume}; d's {symbol} would keep nothing, so
    # the tuple crosses unchanged — as it does when nothing would go
    routed = dict(tree.route(SOURCE, run, True, True))
    assert routed["b"] == []
    assert [t.values for t in routed["a"]] == [
        {"price": p, "volume": 1.0} for p in (5.0, 55.0, 8.0)
    ]
    assert {t.size for t in routed["a"]} == {16.0}
    assert dict(tree.route("a", run, False, True))["d"] == run
    narrow = [StreamTuple("s", 9, 0.0, {"price": 5.0, "volume": 1.0}, 64.0)]
    assert dict(tree.route(SOURCE, narrow, True, True))["a"] == narrow
    # some query below reads everything: no projection on the way there
    tree.set_required_attributes("c", None)
    assert tree.subtree_attributes("a") is None
    assert dict(tree.route(SOURCE, run, True, True))["a"] == [
        run[0], run[2], run[4]
    ]


def test_no_interest_below_means_no_forwarding(tree):
    tree.set_interests("a", [StreamInterest.on("s", price=(0, 10))])
    # b's subtree registered nothing: nothing should flow there
    assert tree.subtree_filter("b") is None
    assert not tree.needs_tuple("b", {"price": 5})
    probe = StreamTuple("s", 0, 0.0, {"price": 5}, 64.0)
    assert tree.filter_batch("b", [probe]) == []


def test_wrong_stream_interest_rejected(tree):
    with pytest.raises(ValueError):
        tree.set_interests("a", [StreamInterest.on("other", x=(0, 1))])


def test_filters_recomputed_after_interest_change(tree):
    tree.set_interests("a", [StreamInterest.on("s", price=(0, 10))])
    assert tree.needs_tuple("a", {"price": 5})
    tree.set_interests("a", [StreamInterest.on("s", price=(90, 99))])
    assert not tree.needs_tuple("a", {"price": 5})
    assert tree.needs_tuple("a", {"price": 95})


def test_filters_recomputed_after_structure_change(tree):
    tree.set_interests("c", [StreamInterest.on("s", price=(50, 60))])
    assert tree.needs_tuple("a", {"price": 55})  # c under a
    tree.reattach("c", "b")
    assert not tree.needs_tuple("a", {"price": 55})
    assert tree.needs_tuple("b", {"price": 55})


def test_interests_of(tree):
    interests = [StreamInterest.on("s", price=(0, 10))]
    tree.set_interests("a", interests)
    assert tree.interests_of("a") == interests
    assert tree.interests_of("b") == []


def test_detach_clears_interests(tree):
    tree.set_interests("a", [StreamInterest.on("s", price=(0, 10))])
    tree.detach("a")
    # reattach and confirm the old interest is gone
    tree.attach("a", "b")
    assert tree.interests_of("a") == []
