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
