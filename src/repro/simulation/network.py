"""Simulated network: nodes, latency/bandwidth links, topologies.

The paper distinguishes two network tiers:

* the **WAN tier** between entities — high, distance-dependent latency,
  constrained bandwidth, where communication cost dominates;
* the **LAN tier** inside an entity — "fast local network", low constant
  latency and high bandwidth.

We model the network as a set of positioned nodes with a latency function
derived from Euclidean distance (WAN) or a constant (LAN), plus per-node
egress bandwidth that adds serialisation delay.  Every transfer is
accounted per directed link so experiments can report exact
bytes-transferred, byte-hops, and per-node traffic.

Every directed link is FIFO, like the TCP connections and asyncio
channels of the live legs: a message is delivered no earlier than the
previous message on the same link, so a small tuple never overtakes a
larger one sent before it.  Protocols that hand a stream from one node
to another (the partition router, stages and merge) rely on this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.simulation.simulator import Simulator

# Tier labels.
WAN = "wan"
LAN = "lan"


@dataclass(slots=True)
class NetworkNode:
    """A communication endpoint (an entity gateway or a processor).

    Attributes:
        node_id: Globally unique identifier.
        x, y: Position in a virtual plane; WAN latency grows with distance.
        tier: ``"wan"`` or ``"lan"``.
        bandwidth_bps: Egress bandwidth in bytes/second.
        group: Optional grouping key (e.g. owning entity id for LAN nodes).
        alive: Failed nodes drop sends and deliveries.
    """

    node_id: str
    x: float = 0.0
    y: float = 0.0
    tier: str = WAN
    bandwidth_bps: float = 1e9
    group: str | None = None
    alive: bool = True

    def distance_to(self, other: "NetworkNode") -> float:
        """Euclidean distance to another node in plane units."""
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(slots=True)
class LinkStats:
    """Per-directed-link transfer accounting."""

    messages: int = 0
    bytes: float = 0.0


class UnknownNodeError(KeyError):
    """Raised when a send references a node the network does not know."""


class Network:
    """A latency/bandwidth network over :class:`NetworkNode` endpoints.

    Latency model:
        * same node: 0
        * both LAN nodes in the same ``group``: ``lan_latency``
        * otherwise (WAN hop): ``wan_base_latency + distance * wan_latency_per_unit``

    A transfer of ``size`` bytes from ``src`` also pays a serialisation
    delay ``size / src.bandwidth_bps``, but never lands before the
    previous delivery on the same directed link (FIFO links).  Delivery
    callbacks fire on the owning simulator, so the network composes
    with every other subsystem.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        wan_base_latency: float = 0.010,
        wan_latency_per_unit: float = 0.100,
        lan_latency: float = 0.0005,
    ) -> None:
        self.sim = sim
        self.wan_base_latency = wan_base_latency
        self.wan_latency_per_unit = wan_latency_per_unit
        self.lan_latency = lan_latency
        self._nodes: dict[str, NetworkNode] = {}
        self._link_stats: dict[tuple[str, str], LinkStats] = {}
        # per directed link: the latest delivery time scheduled on it
        self._link_tail: dict[tuple[str, str], float] = {}
        self.total_messages = 0
        self.total_bytes = 0.0
        self.wan_bytes = 0.0
        self.lan_bytes = 0.0
        self.dropped_messages = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_node(self, node: NetworkNode) -> NetworkNode:
        """Register a node; replaces any previous node with the same id."""
        self._nodes[node.node_id] = node
        return node

    def node(self, node_id: str) -> NetworkNode:
        """Look up a node by id, raising :class:`UnknownNodeError` if absent."""
        try:
            return self._nodes[node_id]
        except KeyError as exc:
            raise UnknownNodeError(node_id) from exc

    def has_node(self, node_id: str) -> bool:
        """Whether the node id is registered."""
        return node_id in self._nodes

    def remove_node(self, node_id: str) -> None:
        """Deregister a node (its link stats are kept for reporting)."""
        self._nodes.pop(node_id, None)

    @property
    def nodes(self) -> list[NetworkNode]:
        """All registered nodes, in insertion order."""
        return list(self._nodes.values())

    # ------------------------------------------------------------------
    # Latency model
    # ------------------------------------------------------------------
    def latency(self, src_id: str, dst_id: str) -> float:
        """One-way propagation latency between two nodes, in seconds."""
        if src_id == dst_id:
            return 0.0
        src = self.node(src_id)
        dst = self.node(dst_id)
        # Two nodes share a LAN when they belong to the same group — an
        # entity's gateway carries its entity id as group, so processor
        # <-> gateway hops are local while gateway <-> gateway hops are WAN.
        same_lan = src.group is not None and src.group == dst.group
        if same_lan:
            return self.lan_latency
        return self.wan_base_latency + src.distance_to(dst) * self.wan_latency_per_unit

    def transfer_time(self, src_id: str, dst_id: str, size: float) -> float:
        """Latency plus serialisation delay for ``size`` bytes."""
        src = self.node(src_id)
        return self.latency(src_id, dst_id) + size / src.bandwidth_bps

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def send(
        self,
        src_id: str,
        dst_id: str,
        size: float,
        payload: Any = None,
        on_delivery: Callable[[Any], None] | None = None,
    ) -> float:
        """Transfer ``size`` bytes and schedule the delivery callback.

        Returns the scheduled delivery delay (seconds), which includes
        any wait behind the link's previous delivery.  If either
        endpoint is dead the message is dropped, counted, and the callback
        never fires; the returned delay is ``inf``.
        """
        src = self.node(src_id)
        dst = self.node(dst_id)
        if not (src.alive and dst.alive):
            self.dropped_messages += 1
            return math.inf

        delay = self.transfer_time(src_id, dst_id, size)
        link = (src_id, dst_id)
        stats = self._link_stats.setdefault(link, LinkStats())
        stats.messages += 1
        stats.bytes += size
        self.total_messages += 1
        self.total_bytes += size
        if self.latency(src_id, dst_id) > self.lan_latency:
            self.wan_bytes += size
        else:
            self.lan_bytes += size

        if on_delivery is not None:
            def deliver() -> None:
                if dst.alive:
                    on_delivery(payload)
                else:
                    self.dropped_messages += 1

            # FIFO: equal times fire in insertion order
            now = self.sim.now
            at = max(now + delay, self._link_tail.get(link, now))
            self._link_tail[link] = at
            self.sim.schedule_at(at, deliver)
            delay = at - now
        return delay

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def link_stats(self, src_id: str, dst_id: str) -> LinkStats:
        """Accumulated stats for the directed link ``src -> dst``."""
        return self._link_stats.get((src_id, dst_id), LinkStats())

    def egress_bytes(self, node_id: str) -> float:
        """Total bytes sent by ``node_id`` across all links."""
        return sum(
            stats.bytes
            for (src, __), stats in self._link_stats.items()
            if src == node_id
        )

    def ingress_bytes(self, node_id: str) -> float:
        """Total bytes received by ``node_id`` across all links."""
        return sum(
            stats.bytes
            for (__, dst), stats in self._link_stats.items()
            if dst == node_id
        )


# ----------------------------------------------------------------------
# Topology generators
# ----------------------------------------------------------------------
def wan_topology(
    network: Network,
    count: int,
    *,
    prefix: str = "entity",
    rng=None,
    bandwidth_bps: float = 12.5e6,
    extent: float = 1.0,
) -> list[NetworkNode]:
    """Place ``count`` WAN nodes uniformly in an ``extent``-sized square.

    Positions come from the network's simulator RNG unless ``rng`` is
    given, so topologies are reproducible per seed.
    """
    rng = rng if rng is not None else network.sim.rng
    nodes = []
    for i in range(count):
        node = NetworkNode(
            node_id=f"{prefix}-{i}",
            x=rng.uniform(0.0, extent),
            y=rng.uniform(0.0, extent),
            tier=WAN,
            bandwidth_bps=bandwidth_bps,
        )
        nodes.append(network.add_node(node))
    return nodes


def lan_topology(
    network: Network,
    count: int,
    group: str,
    *,
    prefix: str | None = None,
    bandwidth_bps: float = 125e6,
) -> list[NetworkNode]:
    """Add ``count`` LAN processors that share a group (entity)."""
    prefix = prefix if prefix is not None else f"{group}/proc"
    nodes = []
    for i in range(count):
        node = NetworkNode(
            node_id=f"{prefix}-{i}",
            tier=LAN,
            group=group,
            bandwidth_bps=bandwidth_bps,
        )
        nodes.append(network.add_node(node))
    return nodes


def two_tier_topology(
    network: Network,
    entity_count: int,
    processors_per_entity: int,
    *,
    rng=None,
) -> dict[str, list[NetworkNode]]:
    """Build the paper's Figure-1 shape: WAN entities, each a LAN cluster.

    Returns a mapping ``entity node id -> [processor nodes]``.  The entity
    WAN node doubles as the cluster's gateway; its processors inherit the
    gateway position so WAN hops measured from any processor match the
    entity's location.
    """
    gateways = wan_topology(network, entity_count, rng=rng)
    clusters: dict[str, list[NetworkNode]] = {}
    for gateway in gateways:
        gateway.group = gateway.node_id
        processors = lan_topology(
            network, processors_per_entity, group=gateway.node_id
        )
        for proc in processors:
            proc.x = gateway.x
            proc.y = gateway.y
        clusters[gateway.node_id] = processors
    return clusters
