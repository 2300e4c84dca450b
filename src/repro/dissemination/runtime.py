"""Tuple forwarding over the simulated network.

Binds a :class:`DisseminationTree` to the network: the source pushes
each tuple to its first-hop children, every entity relays to its own
children, and — when early filtering is on — a tuple crosses an edge
only if the child subtree's aggregate filter matches.  Per-entity
delivery counts, byte volumes, and latencies are recorded, and the
network accounts every WAN byte, so E3/E4 read their series directly
from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.dissemination.tree import SOURCE, DisseminationTree
from repro.simulation.network import Network
from repro.simulation.simulator import Simulator
from repro.streams.source import StreamSource
from repro.streams.tuples import StreamTuple

DeliveryHandler = Callable[[str, StreamTuple], None]


@dataclass
class DeliveryStats:
    """Per-entity delivery accounting for one stream."""

    tuples: dict[str, int] = field(default_factory=dict)
    bytes: dict[str, float] = field(default_factory=dict)
    latency_sum: dict[str, float] = field(default_factory=dict)
    filtered_edges: int = 0
    forwarded_edges: int = 0

    def record(self, entity: str, tup: StreamTuple, now: float) -> None:
        """Account one delivery at ``entity``."""
        self.tuples[entity] = self.tuples.get(entity, 0) + 1
        self.bytes[entity] = self.bytes.get(entity, 0.0) + tup.size
        self.latency_sum[entity] = (
            self.latency_sum.get(entity, 0.0) + (now - tup.created_at)
        )

    def mean_latency(self, entity: str) -> float:
        """Mean source-to-entity delivery latency."""
        count = self.tuples.get(entity, 0)
        if not count:
            return 0.0
        return self.latency_sum[entity] / count

    @property
    def total_tuples(self) -> int:
        """Deliveries summed over entities."""
        return sum(self.tuples.values())

    @property
    def total_bytes(self) -> float:
        """Bytes summed over entities."""
        return sum(self.bytes.values())


class DisseminationRuntime:
    """Executes one stream's dissemination tree on the network.

    Entity ids must equal the ids of their gateway network nodes; the
    source occupies its own network node (``source_node_id``).

    Args:
        sim: The simulator.
        network: The simulated network.
        tree: The dissemination tree to execute.
        source_node_id: Network node id of the stream source.
        early_filtering: Apply subtree aggregate filters on edges (the
            §3.1 optimisation); off = forward-all (ablation E4).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        tree: DisseminationTree,
        source_node_id: str,
        *,
        early_filtering: bool = True,
        transform: bool = False,
    ) -> None:
        self.sim = sim
        self.network = network
        self.tree = tree
        self.source_node_id = source_node_id
        self.early_filtering = early_filtering
        # §3.1 "transforming": project tuples down to the attributes the
        # child subtree declared before crossing the edge
        self.transform = transform
        self.stats = DeliveryStats()
        self._handlers: list[DeliveryHandler] = []
        self._unsubscribe: Callable[[], None] | None = None

    # ------------------------------------------------------------------
    def on_delivery(self, handler: DeliveryHandler) -> None:
        """Register ``handler(entity_id, tuple)`` for every delivery."""
        self._handlers.append(handler)

    def attach_source(self, source: StreamSource) -> None:
        """Subscribe to a source so its emissions enter the tree."""
        if source.stream_id != self.tree.stream_id:
            raise ValueError(
                f"source {source.stream_id} vs tree {self.tree.stream_id}"
            )
        self._unsubscribe = source.subscribe(self.inject)

    def detach_source(self) -> None:
        """Stop receiving from the attached source."""
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    # ------------------------------------------------------------------
    def inject(self, tup: StreamTuple) -> None:
        """Push one tuple into the tree at the source."""
        self._forward(SOURCE, self.source_node_id, tup)

    def _forward(self, node: str, node_net_id: str, tup: StreamTuple) -> None:
        for child, kept in self.tree.route(
            node, [tup], self.early_filtering, self.transform
        ):
            self.stats.filtered_edges += 1 - len(kept)
            for payload in kept:
                self.stats.forwarded_edges += 1
                self.network.send(
                    node_net_id,
                    child,
                    payload.size,
                    payload=(child, payload),
                    on_delivery=self._deliver,
                )

    def _deliver(self, payload: tuple[str, StreamTuple]) -> None:
        entity, tup = payload
        self.stats.record(entity, tup, self.sim.now)
        for handler in self._handlers:
            handler(entity, tup)
        self._forward(entity, entity, tup)
