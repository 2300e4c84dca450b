"""The federated system façade: build, submit, run, report.

:class:`FederatedSystem` assembles the whole Figure-1 deployment from a
:class:`SystemConfig` — WAN entities with LAN clusters, stream sources,
the portal's coordinator tree, per-stream dissemination trees — then
accepts query workloads and runs the simulation, returning a
:class:`~repro.core.report.RunReport`.

Every strategy knob (dissemination tree shape, early filtering,
allocation, placement) accepts both the paper's technique and its
baselines, so end-to-end comparisons (E2, E12) are a config diff.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.entity import Entity
from repro.core.portal import ALLOCATION_NAMES, Portal
from repro.core.report import RunReport
from repro.dissemination.builders import (
    build_balanced_tree,
    build_closest_parent_tree,
    build_source_direct_tree,
)
from repro.dissemination.maintenance import TreeMaintainer, repair_after_crash
from repro.dissemination.runtime import DisseminationRuntime
from repro.dissemination.tree import SOURCE, DisseminationTree
from repro.placement.factory import PLACER_NAMES
from repro.placement.performance_ratio import PerformanceTracker
from repro.query.spec import QuerySpec
from repro.simulation.network import Network, NetworkNode, two_tier_topology
from repro.simulation.simulator import Simulator
from repro.streams.catalog import StreamCatalog, stock_catalog
from repro.streams.source import StreamSource
from repro.streams.tuples import StreamTuple

DISSEMINATION_NAMES = ("closest", "direct", "kary")

# Egress bandwidth of every stream source node (bytes/s).
SOURCE_BANDWIDTH = 12.5e6


@dataclass(frozen=True)
class SystemConfig:
    """Deployment and strategy configuration.

    Attributes:
        entity_count: Number of WAN entities.
        processors_per_entity: LAN cluster size.
        seed: Master seed (topology, sources, tie-breaking).
        dissemination: Tree builder: ``closest`` (cooperative, the
            paper), ``direct`` (source-direct baseline), or ``kary``.
        max_fanout: Fanout bound for cooperative trees.
        early_filtering: Aggregate-interest filtering at ancestors.
        allocation: Query-to-entity strategy (see Portal).
        placement: Intra-entity placer (see placement.factory).
        distribution_limit: Max processors per query (§4.1 heuristic 2).
        max_imbalance: Balance constraint for partitioning allocation.
        monitoring_interval: When set, run the hierarchical monitoring
            service every this many seconds; online routing then also
            considers measured entity CPU load.
        transform_at_ancestors: Project tuples down to each subtree's
            declared attribute requirement before forwarding (§3.1
            "transforming").
        tree_maintenance_interval: When set, periodically reorganise
            every dissemination tree (local reattachment).
    """

    entity_count: int = 8
    processors_per_entity: int = 4
    seed: int = 0
    dissemination: str = "closest"
    max_fanout: int = 4
    early_filtering: bool = True
    allocation: str = "partition"
    placement: str = "pr"
    distribution_limit: int = 2
    max_imbalance: float = 1.10
    monitoring_interval: float | None = None
    tree_maintenance_interval: float | None = None
    transform_at_ancestors: bool = False
    # Intra-operator parallelism: partitionable stages (exact-match
    # window joins, grouped aggregates) split across this many parallel
    # fragment instances.  1 = plain linear chains.
    partition_parallelism: int = 1
    # Multi-query shared computation: colocated queries with equal
    # fingerprint prefixes execute one shared prefix fragment feeding
    # per-query taps (repro.engine.sharing).  Off by default; results
    # are bit-identical either way.
    shared_execution: bool = False
    # Multi-tenant control plane (repro.control).  admission_queue_limit
    # > 0 turns on cost-model admission control for dynamic arrivals:
    # a query whose predicted load would push the best-case placement
    # past admission_imbalance_threshold × ideal waits in a bounded
    # queue (and is rejected when the queue is full).  tenant_quota_rate
    # is the federation-wide intake budget (tuples/second) split across
    # tenants by tenant_weights (weighted-fair token buckets at the
    # gateways); None disables throttling.
    admission_queue_limit: int = 0
    admission_imbalance_threshold: float = 1.5
    tenant_quota_rate: float | None = None
    tenant_weights: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.dissemination not in DISSEMINATION_NAMES:
            raise ValueError(
                f"dissemination must be one of {DISSEMINATION_NAMES}"
            )
        if self.allocation not in ALLOCATION_NAMES:
            raise ValueError(f"allocation must be one of {ALLOCATION_NAMES}")
        if self.placement not in PLACER_NAMES:
            raise ValueError(f"placement must be one of {PLACER_NAMES}")
        if self.entity_count < 1 or self.processors_per_entity < 1:
            raise ValueError("need at least one entity and one processor")
        if self.partition_parallelism < 1:
            raise ValueError("partition_parallelism must be >= 1")
        if self.admission_queue_limit < 0:
            raise ValueError("admission_queue_limit must be >= 0")
        if self.admission_imbalance_threshold < 1.0:
            raise ValueError("admission_imbalance_threshold must be >= 1.0")
        if self.tenant_quota_rate is not None and self.tenant_quota_rate <= 0:
            raise ValueError("tenant_quota_rate must be positive")
        # JSON round-trips (distributed ASSIGN specs) deliver the weight
        # table as lists; normalise so equality and hashing behave.
        object.__setattr__(
            self,
            "tenant_weights",
            tuple((str(t), float(w)) for t, w in self.tenant_weights),
        )
        for _, weight in self.tenant_weights:
            if weight <= 0:
                raise ValueError("tenant weights must be positive")


class FederatedSystem:
    """A complete two-layer deployment over a stream catalog."""

    def __init__(self, catalog: StreamCatalog, config: SystemConfig) -> None:
        self.catalog = catalog
        self.config = config
        self.sim = Simulator(seed=config.seed)
        self.network = Network(self.sim)
        clusters = two_tier_topology(
            self.network,
            config.entity_count,
            config.processors_per_entity,
        )
        self.entities: dict[str, Entity] = {}
        for entity_id, nodes in clusters.items():
            self._add_entity(entity_id, nodes)
        positions = {e: self._position(e) for e in self.entities}
        self.portal = Portal(list(self.entities), positions, catalog)
        self.sources: dict[str, StreamSource] = {}
        self._source_nodes: dict[str, str] = {}
        for schema in catalog.schemas():
            node_id = f"source/{schema.stream_id}"
            self.network.add_node(
                NetworkNode(
                    node_id,
                    x=self.sim.rng.uniform(0.0, 1.0),
                    y=self.sim.rng.uniform(0.0, 1.0),
                    bandwidth_bps=SOURCE_BANDWIDTH,
                )
            )
            self.sources[schema.stream_id] = StreamSource(self.sim, schema)
            self._source_nodes[schema.stream_id] = node_id

        self.tracker = PerformanceTracker()
        self.dissemination: dict[str, DisseminationRuntime] = {}
        self.allocation_result = None
        self._queries: list[QuerySpec] = []
        self._query_index: dict[str, QuerySpec] = {}
        self._entity_counter = config.entity_count
        self.rehomed_queries = 0
        # dissemination-tree membership changes made by refresh_trees()
        self.tree_attaches = 0
        self.tree_detaches = 0
        self.results: dict[str, list[StreamTuple]] | None = None

        self.monitoring = None
        if config.monitoring_interval is not None:
            from repro.monitoring import EntityLoadCollector, MonitoringService

            self.monitoring = MonitoringService(
                self.sim,
                self.portal.tree,
                report_interval=config.monitoring_interval,
            )
            for entity in self.entities.values():
                self.monitoring.register(
                    EntityLoadCollector(self.sim, entity)
                )
            self.portal.router.external_load = self.monitoring.load_of
            self.monitoring.start()
        self._maintainers: dict[str, object] = {}

    def _position(self, node_id: str) -> tuple[float, float]:
        node = self.network.node(node_id)
        return node.x, node.y

    def _add_entity(self, entity_id: str, processors: list[NetworkNode]) -> None:
        entity = Entity(self.sim, self.network, entity_id, processors, self.catalog)
        entity.result_handler = self._deliver_result
        self.entities[entity_id] = entity

    # ------------------------------------------------------------------
    # Read-only views (the mutation protocol stays inside this class)
    # ------------------------------------------------------------------
    @property
    def queries(self) -> list[QuerySpec]:
        """The currently submitted queries (a copy; submission order)."""
        return list(self._queries)

    # ------------------------------------------------------------------
    # Query submission
    # ------------------------------------------------------------------
    def submit(self, queries: list[QuerySpec]) -> None:
        """Allocate, host, place, and wire a batch of queries."""
        if not queries:
            raise ValueError("submit needs at least one query")
        self._queries.extend(queries)
        for query in queries:
            self._query_index[query.query_id] = query
        divisible = (
            {
                query.query_id: self.config.partition_parallelism
                for query in queries
                if query.partitionable
            }
            if self.config.partition_parallelism > 1
            else None
        )
        self.allocation_result = self.portal.allocate(
            queries,
            strategy=self.config.allocation,
            max_imbalance=self.config.max_imbalance,
            seed=self.config.seed,
            divisible=divisible,
        )
        for query in queries:
            entity_id = self.allocation_result.assignment[query.query_id]
            hosted = self.entities[entity_id].host(query)
            self.tracker.set_complexity(
                query.query_id, hosted.inherent_complexity
            )
            self._add_client_node(query)
        for entity in self.entities.values():
            if entity.hosted:
                self._deploy(entity)
        self._build_dissemination()

    def _deploy(self, entity: Entity) -> None:
        """(Re)deploy one entity under the configured strategies."""
        entity.deploy(
            placer=self.config.placement,
            distribution_limit=self.config.distribution_limit,
            seed=self.config.seed,
            partition_parallelism=self.config.partition_parallelism,
            shared_execution=self.config.shared_execution,
        )

    # ------------------------------------------------------------------
    # Lifecycle edits (§3.2.2): the running plan changes in place
    # ------------------------------------------------------------------
    def submit_one(self, query: QuerySpec) -> str:
        """Admit a single query online via coordinator-tree routing.

        This is the §3.2.1 "query stream" path: no global repartitioning,
        just a level-by-level route to an entity.  Returns the entity id.
        """
        self.edit(arrivals=[query])
        return self.allocation_result.assignment[query.query_id]

    def withdraw(self, query_id: str) -> None:
        """Remove a query ("arrival or leave of queries", §3.2.2);
        ``KeyError`` if it was never submitted."""
        self.edit(departures=[query_id])

    def migrate(self, moves: list[tuple[str, str, str]]) -> list[str]:
        """Move ``(query_id, source, target)`` queries between entities,
        fragments and operator state intact; returns the touched ids."""
        return self.edit(moves=moves)

    def edit(
        self,
        *,
        departures: Iterable[str] = (),
        arrivals: Iterable[QuerySpec] = (),
        moves: Iterable[tuple[str, str, str]] = (),
        failed: Iterable[str] = (),
    ) -> list[str]:
        """Apply one batch of lifecycle changes to the running plan.

        The hosting edits run first — failures, departures, arrivals,
        then moves, each in the order given — and :meth:`settle` follows
        once.  No entity redeploys and no tree is rebuilt, so colocated
        queries keep their fragments and windows.  A failed node is a
        processor (:meth:`Entity.processor_failed
        <repro.core.entity.Entity.processor_failed>`) or an entity, whose
        subtrees are re-parented in place and whose queries arrive again
        through the coordinator tree.  Returns the touched entity ids,
        sorted; the simulator runs them at once, a live run loads them
        behind a closed gate, or as soon as it detects a crash.
        """
        repaired: set[str] = set()
        for node_id in failed:
            repaired.update(self._fail(node_id))
        touched: set[str | None] = set()
        for query_id in departures:
            touched.add(self._depart(query_id))
        for query in arrivals:
            touched.add(self._arrive(query))
        for query_id, src_id, dst_id in moves:
            self._transfer(query_id, src_id, dst_id)
            touched.update((src_id, dst_id))
        touched.discard(None)
        return self.settle(touched, repaired=repaired & self.entities.keys())

    def settle(
        self, touched: Iterable[str], *, repaired: Iterable[str] = ()
    ) -> list[str]:
        """Finish a batch of hosting edits: re-share the ``touched``
        entities (with shared execution), refresh the trees, re-derive the
        wiring of those and the ``repaired`` ones (not re-shared: a crash
        is no quiescent point).  Returns every entity re-derived, sorted."""
        touched = sorted(touched)
        if self.config.shared_execution:
            for entity_id in touched:
                self.entities[entity_id].reshare()
        touched = sorted({*touched, *repaired})
        if touched:
            self.refresh_trees()
        for entity_id in touched:
            self.entities[entity_id].rewire()
        return touched

    def _arrive(self, query: QuerySpec) -> str:
        """Admit an online arrival and route it to an entity."""
        if query.query_id in self._query_index:
            raise ValueError(f"{query.query_id} already submitted")
        self._queries.append(query)
        self._query_index[query.query_id] = query
        if self.allocation_result is None:
            from repro.core.portal import AllocationResult

            self.allocation_result = AllocationResult(
                assignment={}, cut=0.0, imbalance=1.0, routing_messages=0
            )
        self._add_client_node(query)
        return self._route(query)

    def _route(self, query: QuerySpec) -> str:
        """Host a query where the coordinator tree routes it, as a
        standalone canonical chain (it has no state to keep and no
        placement to respect)."""
        entity_id = self.portal.route_one(query)
        entity = self.entities[entity_id]
        hosted = entity.host(query)
        self.tracker.set_complexity(query.query_id, hosted.inherent_complexity)
        self.allocation_result.assignment[query.query_id] = entity_id
        entity.make_standalone(hosted)
        entity.ensure_delegation(query.input_streams)
        entity.place_chain(hosted)
        return entity_id

    def _depart(self, query_id: str) -> str | None:
        """Forget a query and unhost it; returns its entity, if any."""
        spec = self._query_index.pop(query_id)
        self._queries = [q for q in self._queries if q.query_id != query_id]
        entity_id = self.allocation_result.assignment.pop(query_id, None)
        if entity_id in self.entities:
            self.entities[entity_id].unhost(query_id)
        self.portal.router.release(query_id, spec.estimated_load(self.catalog))
        return entity_id

    def _transfer(self, query_id: str, src_id: str, dst_id: str) -> None:
        """Re-home one query: its fragments (with their state) move, a
        shared-group member leaves its group as a standalone canonical
        chain, and delegation follows the streams."""
        src = self.entities[src_id]
        dst = self.entities[dst_id]
        hosted = src.hosted.pop(query_id, None)
        if hosted is None:
            return
        dst.hosted[query_id] = hosted
        self.allocation_result.assignment[query_id] = dst_id
        if hosted.shared_group is not None:
            deployment = src.shared.get(hosted.shared_group)
            if deployment is not None and deployment.group.stateful:
                raise ValueError(
                    f"cannot migrate {query_id}: member of stateful "
                    f"shared group {hosted.shared_group}"
                )
            src.leave_group(hosted)
            src.make_standalone(hosted)
        streams = hosted.spec.input_streams
        src.release_delegation(streams)
        dst.ensure_delegation(streams)
        dst.place_chain(hosted)

    def submit_over_time(self, timed_queries) -> None:
        """Schedule ``(arrival_time, query)`` pairs for online admission.

        Times are absolute virtual times; pairs in the past are rejected.
        """
        for arrival, query in timed_queries:
            self.sim.schedule_at(
                arrival, lambda q=query: self.submit_one(q)
            )

    def _add_client_node(self, query: QuerySpec) -> None:
        node_id = f"client/{query.query_id}"
        if not self.network.has_node(node_id):
            self.network.add_node(
                NetworkNode(
                    node_id,
                    x=query.client_x,
                    y=query.client_y,
                    bandwidth_bps=125e6,
                )
            )

    def collect_results(self) -> dict[str, list[StreamTuple]]:
        """Keep every result from now on, per query, in the dict this
        returns — the shape of the live and distributed legs'
        ``results``.  Off until asked for, so a long simulation holds no
        result tuple."""
        if self.results is None:
            self.results = {}
        return self.results

    def _deliver_result(self, query_id: str, tup: StreamTuple) -> None:
        """Ship a result from its entity's gateway to the client node."""
        if self.results is not None:
            self.results.setdefault(query_id, []).append(tup)
        entity_id = self.allocation_result.assignment.get(query_id)
        if entity_id is None:
            return  # the query was withdrawn while results were in flight
        client = f"client/{query_id}"

        def at_client(t: StreamTuple) -> None:
            self.tracker.record_result(query_id, self.sim.now - t.created_at)

        self.network.send(
            entity_id, client, tup.size, payload=tup, on_delivery=at_client
        )

    # ------------------------------------------------------------------
    # Dynamic entity membership (§3.2.1)
    # ------------------------------------------------------------------
    def add_entity(self, entity_id: str | None = None) -> str:
        """Admit a new entity at runtime.

        Creates the gateway and LAN cluster and joins the coordinator
        tree; the running trees are left as they are.  The newcomer
        hosts no query yet, so no tree wants it: the first query routed
        to it attaches it (:meth:`refresh_trees`).  Returns the new
        entity id.
        """
        if entity_id is None:
            entity_id = f"entity-{self._entity_counter}"
            self._entity_counter += 1
        if entity_id in self.entities:
            raise ValueError(f"{entity_id} already exists")
        gateway = self.network.add_node(
            NetworkNode(
                entity_id,
                x=self.sim.rng.uniform(0.0, 1.0),
                y=self.sim.rng.uniform(0.0, 1.0),
                group=entity_id,
            )
        )
        from repro.simulation.network import lan_topology

        processors = lan_topology(
            self.network,
            self.config.processors_per_entity,
            group=entity_id,
        )
        for proc in processors:
            proc.x, proc.y = gateway.x, gateway.y
        self._add_entity(entity_id, processors)
        self.portal.add_entity(entity_id, (gateway.x, gateway.y))
        if self.monitoring is not None:
            from repro.monitoring import EntityLoadCollector

            self.monitoring.register(
                EntityLoadCollector(self.sim, self.entities[entity_id])
            )
        return entity_id

    def remove_entity(self, entity_id: str) -> list[str]:
        """Retire an entity (one ``edit(failed=[entity_id])``); returns
        its queries, re-homed elsewhere."""
        stranded = sorted(self.entities[entity_id].hosted)
        self.edit(failed=[entity_id])
        return stranded

    def crash_entity(
        self, entity_id: str, *, detection_delay: float = 3.0
    ) -> None:
        """Silently kill an entity; repair happens ``detection_delay``
        seconds later (heartbeat detection)."""
        entity = self.entities[entity_id]
        self.network.node(entity_id).alive = False
        for proc_id in entity.processors:
            self.network.node(proc_id).alive = False
            entity.processors[proc_id].fail()

        def detect() -> None:
            if entity_id in self.entities:
                self.edit(failed=[entity_id])

        self.sim.schedule(detection_delay, detect)

    def _fail(self, node_id: str) -> list[str]:
        """Take a dead node out of the hosting model; returns the
        entities whose wiring changed."""
        if node_id in self.entities:
            return self._fail_entity(node_id)
        for entity_id, entity in self.entities.items():
            if node_id in entity.processors:
                entity.processor_failed(node_id)
                return [entity_id]
        raise KeyError(node_id)

    def _fail_entity(self, entity_id: str) -> list[str]:
        """The portal and the trees heal around a dead entity, in place,
        and its queries re-arrive elsewhere."""
        if len(self.entities) <= 1:
            raise RuntimeError("cannot remove the last entity")
        entity = self.entities.pop(entity_id)
        self.portal.remove_entity(entity_id)
        if self.monitoring is not None:
            self.monitoring.deregister(entity_id)
        self.network.node(entity_id).alive = False
        for proc_id in entity.processors:
            self.network.node(proc_id).alive = False
        positions = {e: self._position(e) for e in sorted(self.entities)}
        for stream_id, runtime in sorted(self.dissemination.items()):
            source = self._position(self._source_nodes[stream_id])
            repair_after_crash(runtime.tree, entity_id, source, positions)
        self.rehomed_queries += len(entity.hosted)
        return [self._route(self._query_index[q]) for q in sorted(entity.hosted)]

    # ------------------------------------------------------------------
    # Dissemination wiring
    # ------------------------------------------------------------------
    def _build_dissemination(self) -> None:
        """(Re)build one dissemination tree per stream in demand."""
        for runtime in self.dissemination.values():
            runtime.detach_source()
        self.dissemination.clear()
        for maintainer in self._maintainers.values():
            maintainer.stop()
        self._maintainers.clear()
        interested, required = self._demand()
        for stream_id, per_entity in interested.items():
            self._open_stream(stream_id, per_entity, required[stream_id])

    def _demand(self) -> tuple[dict[str, dict[str, list]], dict[str, dict]]:
        """Per stream, each interested entity's interests and the
        attributes its queries read."""
        interested: dict[str, dict[str, list]] = {}
        required: dict[str, dict[str, set | None]] = {}
        for entity_id, entity in self.entities.items():
            needed = entity.required_attributes_by_stream()
            for stream_id, interests in entity.interests_by_stream().items():
                interested.setdefault(stream_id, {})[entity_id] = interests
                required.setdefault(stream_id, {})[entity_id] = needed.get(
                    stream_id
                )
        return interested, required

    def _open_stream(
        self, stream_id: str, per_entity: dict[str, list], required: dict
    ) -> None:
        """Build one stream's tree over its interested entities and run
        it from the stream's source."""
        source_node = self._source_nodes[stream_id]
        source = self._position(source_node)
        positions = {e: self._position(e) for e in per_entity}
        if self.config.dissemination == "direct":
            tree = build_source_direct_tree(stream_id, source, positions)
        elif self.config.dissemination == "kary":
            tree = build_balanced_tree(
                stream_id, source, positions, max_fanout=self.config.max_fanout
            )
        else:
            tree = build_closest_parent_tree(
                stream_id, source, positions, max_fanout=self.config.max_fanout
            )
        for entity_id, interests in per_entity.items():
            tree.set_interests(entity_id, interests)
            tree.set_required_attributes(entity_id, required.get(entity_id))
        runtime = DisseminationRuntime(
            self.sim,
            self.network,
            tree,
            source_node,
            early_filtering=self.config.early_filtering,
            transform=self.config.transform_at_ancestors,
        )
        runtime.on_delivery(self._on_stream_delivery)
        runtime.attach_source(self.sources[stream_id])
        self.dissemination[stream_id] = runtime

        if self.config.tree_maintenance_interval is not None:
            def entity_positions(tree=tree):
                return {
                    e: self._position(e)
                    for e in tree.entities
                    if self.network.has_node(e)
                }

            maintainer = TreeMaintainer(
                self.sim,
                tree,
                source,
                entity_positions,
                interval=self.config.tree_maintenance_interval,
            )
            maintainer.start()
            self._maintainers[stream_id] = maintainer

    def refresh_trees(self) -> None:
        """Re-derive every tree's membership and filters from the hosting.

        Trees change *in place* (running forwarders hold them): a newly
        interested entity attaches under the closest node with fanout to
        spare, a member nobody there needs any more becomes a pure relay,
        and relay leaves are pruned bottom-up.  A stream without a tree
        gets one, as :meth:`_build_dissemination` builds it.
        """
        interested, required = self._demand()
        for stream_id in sorted(interested.keys() | self.dissemination.keys()):
            wanted = interested.get(stream_id, {})
            if stream_id not in self.dissemination:
                self._open_stream(stream_id, wanted, required[stream_id])
                continue
            tree = self.dissemination[stream_id].tree
            for entity_id in sorted(wanted):
                if not tree.contains(entity_id):
                    self._attach_closest(tree, entity_id)
                    self.tree_attaches += 1
            for entity_id in tree.entities:
                if entity_id in wanted:
                    tree.set_interests(entity_id, wanted[entity_id])
                    tree.set_required_attributes(
                        entity_id, required[stream_id].get(entity_id)
                    )
                else:
                    # pure relay (or stale member): forwards only what
                    # its subtree needs, reads nothing itself
                    tree.set_interests(entity_id, [])
                    tree.set_required_attributes(entity_id, set())
            while True:
                removable = [
                    entity_id
                    for entity_id in tree.entities
                    if entity_id not in wanted
                    and not tree.children_of(entity_id)
                ]
                if not removable:
                    break
                for entity_id in sorted(removable):
                    tree.detach(entity_id)
                    self.tree_detaches += 1

    def _attach_closest(self, tree: DisseminationTree, entity_id: str) -> None:
        """Attach an entity under the nearest node with fanout to spare
        (leaves always qualify, so one always exists)."""
        node = self.network.node(entity_id)
        source = self.network.node(self._source_nodes[tree.stream_id])

        def distance(member: str) -> float:
            at = source if member == SOURCE else self.network.node(member)
            return (at.x - node.x) ** 2 + (at.y - node.y) ** 2

        best = min(
            (
                member
                for member in [SOURCE] + sorted(tree.entities)
                if tree.fanout(member) < tree.max_fanout
            ),
            key=lambda member: (distance(member), member),
        )
        tree.attach(entity_id, parent=best)

    def _on_stream_delivery(self, entity_id: str, tup: StreamTuple) -> None:
        self.entities[entity_id].receive(tup)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, duration: float, *, max_events: int | None = None) -> RunReport:
        """Start every source, simulate ``duration`` seconds, and report."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        for source in self.sources.values():
            source.start()
        self.sim.run(until=self.sim.now + duration, max_events=max_events)
        for source in self.sources.values():
            source.stop()
        return self._report(duration)

    def _report(self, duration: float) -> RunReport:
        utilization = {}
        for entity_id, entity in self.entities.items():
            values = entity.utilizations(self.sim.now or 1.0)
            utilization[entity_id] = (
                sum(values.values()) / len(values) if values else 0.0
            )
        source_egress = sum(
            self.network.egress_bytes(node) for node in self._source_nodes.values()
        )
        allocation = self.allocation_result
        return RunReport(
            duration=duration,
            wan_bytes=self.network.wan_bytes,
            lan_bytes=self.network.lan_bytes,
            source_egress_bytes=source_egress,
            results=self.tracker.total_results,
            mean_result_latency=self.tracker.overall_mean_delay(),
            pr_max=self.tracker.pr_max(),
            pr_mean=self.tracker.pr_mean(),
            queries_answered=self.tracker.queries_measured,
            queries_total=len(self._queries),
            entity_utilization=utilization,
            allocation_cut=allocation.cut if allocation else 0.0,
            allocation_imbalance=(
                allocation.imbalance if allocation else 1.0
            ),
            routing_messages=(
                allocation.routing_messages if allocation else 0
            ),
            events=self.sim.events_fired,
        )


def build_demo_system(
    *, seed: int = 0, entity_count: int = 6, query_count: int = 60
) -> tuple[FederatedSystem, list[QuerySpec]]:
    """A small ready-to-run deployment for docs and smoke tests.

    Returns the system and the (already submitted) queries.
    """
    from repro.query.generator import WorkloadConfig, generate_workload

    catalog = stock_catalog(exchanges=2, rate=100.0)
    config = SystemConfig(
        entity_count=entity_count,
        processors_per_entity=3,
        seed=seed,
    )
    system = FederatedSystem(catalog, config)
    workload = generate_workload(
        catalog,
        WorkloadConfig(query_count=query_count, join_fraction=0.05),
        seed=seed,
    )
    system.submit(workload.queries)
    return system, workload.queries
