"""Per-stream dissemination trees with aggregate edge filters.

One tree per stream.  The root is the stream source; internal nodes are
entities.  Every entity registers the interests of the queries it hosts;
the filter on the edge towards a child is the *aggregate* interest of
the child's whole subtree, so an ancestor performs the paper's "early
filtering" without knowing individual downstream queries — only their
bounded-size aggregate, which keeps the layer loosely coupled.
"""

from __future__ import annotations

from typing import Callable

from repro.interest.aggregate import InterestAggregate, aggregate_interests
from repro.interest.compiled import compile_interest
from repro.interest.predicates import StreamInterest
from repro.streams.tuples import StreamTuple

SOURCE = "__source__"

# Modeled wire size of one attribute of an ancestor-projected tuple.
BYTES_PER_ATTRIBUTE = 8.0


class TreeStructureError(RuntimeError):
    """Raised on operations that would corrupt the tree."""


class DisseminationTree:
    """The dissemination tree of one stream.

    Args:
        stream_id: The stream this tree carries.
        max_fanout: Upper bound on children per node (the paper: "each
            entity only needs to transfer streams to a limited number of
            entities").  The source obeys the same bound in cooperative
            trees; the source-direct baseline passes ``None``-like large
            values explicitly.
        max_intervals: Complexity bound for aggregate filters.
    """

    def __init__(
        self,
        stream_id: str,
        *,
        max_fanout: int = 4,
        max_intervals: int = 8,
    ) -> None:
        if max_fanout < 1:
            raise ValueError("max_fanout must be >= 1")
        self.stream_id = stream_id
        self.max_fanout = max_fanout
        self.max_intervals = max_intervals
        self._parent: dict[str, str] = {}
        self._children: dict[str, list[str]] = {SOURCE: []}
        self._interests: dict[str, list[StreamInterest]] = {}
        self._required_attrs: dict[str, set[str] | None] = {}
        self._subtree_filter: dict[str, InterestAggregate | None] = {}
        self._subtree_attrs: dict[str, set[str] | None] = {}
        # entity -> compiled edge-filter kernel (None: nothing below
        # needs data, so the edge forwards nothing)
        self._compiled_filter: dict[
            str, Callable[[dict], bool] | None
        ] = {}
        self._dirty = True

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def entities(self) -> list[str]:
        """All attached entities (excluding the source)."""
        return [n for n in self._children if n != SOURCE]

    def parent_of(self, entity: str) -> str:
        """The upstream node (``SOURCE`` for first-hop entities)."""
        try:
            return self._parent[entity]
        except KeyError as exc:
            raise TreeStructureError(f"{entity} not in tree") from exc

    def children_of(self, node: str) -> list[str]:
        """Downstream entities of a node (node may be ``SOURCE``)."""
        return list(self._children.get(node, []))

    def contains(self, entity: str) -> bool:
        """Whether the entity is attached."""
        return entity in self._parent

    def fanout(self, node: str) -> int:
        """Current child count of a node."""
        return len(self._children.get(node, []))

    def depth_of(self, entity: str) -> int:
        """Hops from the source (first-hop entities are at depth 1)."""
        depth = 0
        node = entity
        while node != SOURCE:
            node = self.parent_of(node)
            depth += 1
            if depth > len(self._parent) + 1:
                raise TreeStructureError("parent cycle detected")
        return depth

    def attach(self, entity: str, parent: str = SOURCE) -> None:
        """Attach an entity under ``parent`` (fanout permitting)."""
        if entity in self._parent:
            raise TreeStructureError(f"{entity} already attached")
        if parent != SOURCE and parent not in self._parent:
            raise TreeStructureError(f"parent {parent} not in tree")
        if self.fanout(parent) >= self.max_fanout:
            raise TreeStructureError(f"{parent} is at max fanout")
        self._parent[entity] = parent
        self._children.setdefault(parent, []).append(entity)
        self._children.setdefault(entity, [])
        self._dirty = True

    def detach(self, entity: str) -> None:
        """Remove an entity; its children re-attach to its parent.

        Grandchildren may transiently exceed the parent's fanout bound —
        callers usually run :func:`improve_tree` afterwards.
        """
        if entity not in self._parent:
            raise TreeStructureError(f"{entity} not in tree")
        parent = self._parent.pop(entity)
        self._children[parent].remove(entity)
        for child in self._children.pop(entity, []):
            self._parent[child] = parent
            self._children[parent].append(child)
        self._interests.pop(entity, None)
        self._dirty = True

    def reattach(self, entity: str, new_parent: str) -> None:
        """Move an entity (with its subtree) under another node."""
        if entity not in self._parent:
            raise TreeStructureError(f"{entity} not in tree")
        if new_parent != SOURCE and new_parent not in self._parent:
            raise TreeStructureError(f"parent {new_parent} not in tree")
        if new_parent == entity or self._is_descendant(new_parent, entity):
            raise TreeStructureError("reattach would create a cycle")
        if self.fanout(new_parent) >= self.max_fanout:
            raise TreeStructureError(f"{new_parent} is at max fanout")
        old = self._parent[entity]
        self._children[old].remove(entity)
        self._parent[entity] = new_parent
        self._children[new_parent].append(entity)
        self._dirty = True

    def _is_descendant(self, node: str, ancestor: str) -> bool:
        while node != SOURCE:
            node = self._parent.get(node, SOURCE)
            if node == ancestor:
                return True
        return False

    def is_descendant(self, node: str, ancestor: str) -> bool:
        """Whether ``node`` lies strictly below ``ancestor``."""
        return self._is_descendant(node, ancestor)

    # ------------------------------------------------------------------
    # Interests and filters
    # ------------------------------------------------------------------
    def set_interests(self, entity: str, interests: list[StreamInterest]) -> None:
        """Declare the data requirement of the queries hosted at ``entity``."""
        for interest in interests:
            if interest.stream_id != self.stream_id:
                raise ValueError(
                    f"interest on {interest.stream_id} in tree of {self.stream_id}"
                )
        self._interests[entity] = list(interests)
        self._dirty = True

    def interests_of(self, entity: str) -> list[StreamInterest]:
        """The entity's own registered interests."""
        return list(self._interests.get(entity, []))

    def set_required_attributes(
        self, entity: str, attributes: set[str] | None
    ) -> None:
        """Declare which attributes the entity's queries read.

        ``None`` means "all attributes" (disables ancestor projection
        for every subtree containing this entity); an empty set means
        the entity reads nothing beyond relaying.
        """
        self._required_attrs[entity] = (
            None if attributes is None else set(attributes)
        )
        self._dirty = True

    def required_attributes_of(self, entity: str) -> set[str] | None:
        """The entity's own declared attribute requirement."""
        return self._required_attrs.get(entity, None)

    def _recompute_filters(self) -> None:
        self._subtree_filter.clear()
        self._subtree_attrs.clear()
        self._compiled_filter.clear()

        def visit(node: str) -> tuple[list[StreamInterest], set[str] | None]:
            collected = list(self._interests.get(node, []))
            attrs: set[str] | None
            if node == SOURCE:
                attrs = set()
            else:
                attrs = self._required_attrs.get(node, None)
                if attrs is not None:
                    attrs = set(attrs)
            for child in self._children.get(node, []):
                child_interests, child_attrs = visit(child)
                collected.extend(child_interests)
                if attrs is not None:
                    attrs = None if child_attrs is None else attrs | child_attrs
            if node != SOURCE:
                if collected:
                    agg = aggregate_interests(
                        collected, max_intervals=self.max_intervals
                    )
                    self._subtree_filter[node] = agg
                    # The compiled form is what the per-tuple and batch
                    # edge filters actually run (cached per shape, so a
                    # rebuild that produced an equal aggregate is free).
                    self._compiled_filter[node] = compile_interest(
                        agg.interest
                    )
                else:
                    self._subtree_filter[node] = None
                    self._compiled_filter[node] = None
                self._subtree_attrs[node] = attrs
            return collected, attrs

        visit(SOURCE)
        self._dirty = False

    def subtree_filter(self, entity: str) -> InterestAggregate | None:
        """The aggregate filter an ancestor applies before forwarding to
        ``entity``'s subtree; ``None`` means nothing below needs data."""
        if self._dirty:
            self._recompute_filters()
        return self._subtree_filter.get(entity)

    def needs_tuple(self, entity: str, values: dict[str, float]) -> bool:
        """Early-filter test for the edge into ``entity``'s subtree.

        Runs the compiled kernel of the subtree's aggregate interest —
        output-identical to ``subtree_filter(entity).matches_values``.
        """
        if self._dirty:
            self._recompute_filters()
        match = self._compiled_filter.get(entity)
        if match is None:
            return False
        return match(values)

    def compiled_subtree_filter(
        self, entity: str
    ) -> Callable[[dict], bool] | None:
        """The codegen'd edge-filter kernel for ``entity``'s subtree.

        ``None`` means nothing below needs data (the edge forwards
        nothing); otherwise the kernel is ``values -> bool``.
        """
        if self._dirty:
            self._recompute_filters()
        return self._compiled_filter.get(entity)

    def filter_batch(
        self, entity: str, batch: list[StreamTuple]
    ) -> list[StreamTuple]:
        """Early-filter a whole batch for the edge into ``entity``.

        Returns the tuples the subtree needs, in order — the batch
        analogue of calling :meth:`needs_tuple` per tuple.
        """
        if self._dirty:
            self._recompute_filters()
        match = self._compiled_filter.get(entity)
        if match is None:
            return []
        return [tup for tup in batch if match(tup.values)]

    def route(
        self,
        node: str,
        run: list[StreamTuple],
        early_filtering: bool = True,
        transform: bool = False,
    ) -> list[tuple[str, list[StreamTuple]]]:
        """§3.1's edge rule: what of ``run`` crosses each of ``node``'s
        edges, as one ``(child, tuples)`` pair per child in child order.

        Early filtering keeps only what the child subtree's aggregate
        interest needs (:meth:`filter_batch`); transforming then shrinks
        each kept tuple to the attributes the subtree declared
        (:meth:`transformed`).  A node outside the tree has no edges.
        """
        routed = []
        for child in self._children.get(node, ()):
            kept = self.filter_batch(child, run) if early_filtering else run
            if transform:
                kept = [self.transformed(child, tup) for tup in kept]
            routed.append((child, kept))
        return routed

    def transformed(self, entity: str, tup: StreamTuple) -> StreamTuple:
        """§3.1 "transforming": ``tup`` shrunk to what ``entity``'s
        subtree reads — unchanged when that is everything, or when the
        projection would keep every attribute or none."""
        needed = self.subtree_attributes(entity)
        if needed is None:
            return tup
        kept = [name for name in tup.values if name in needed]
        if len(kept) == len(tup.values) or not kept:
            return tup
        return tup.project(kept, size=BYTES_PER_ATTRIBUTE * len(kept))

    def subtree_attributes(self, entity: str) -> set[str] | None:
        """Attributes the subtree below (and including) ``entity`` reads.

        ``None`` means some query needs everything — ancestors must not
        project tuples crossing the edge into this subtree.
        """
        if self._dirty:
            self._recompute_filters()
        return self._subtree_attrs.get(entity, None)
