"""One business entity: gateway + LAN cluster + local engine (Figure 3).

The entity is the unit of the inter-entity layer: queries are hosted
whole ("a query is processed within a single entity"), streams arrive at
the gateway, and inside the cluster the intra-entity machinery applies —
delegation, fragmentation under the distribution limit, PR-aware
placement, and LAN hops between fragments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.wiring import Edge, derive_wiring
from repro.engine.executor import LocalEngine
from repro.engine.partition import PartitionedDeployment, plan_partitioned
from repro.engine.plan import Fragment, QueryPlan
from repro.engine.sharing import SharedDeployment, SharedGroup, plan_shared
from repro.interest.predicates import StreamInterest
from repro.placement.delegation import DelegationScheme
from repro.placement.factory import make_placer
from repro.placement.fragments import fragment_plan
from repro.placement.placer import PlacementJob, PlacementPlan
from repro.simulation.network import Network, NetworkNode
from repro.simulation.processor import SimProcessor
from repro.simulation.simulator import Simulator
from repro.streams.catalog import StreamCatalog
from repro.streams.tuples import StreamTuple
from repro.query.spec import QuerySpec

ResultHandler = Callable[[str, StreamTuple], None]


@dataclass
class HostedQuery:
    """A query deployed inside the entity."""

    spec: QuerySpec
    plan: QueryPlan
    fragments: list[Fragment] = field(default_factory=list)
    chain_procs: list[str] = field(default_factory=list)
    # Set when the query's hottest stage is deployed partition-parallel;
    # None means the plain linear fragment chain.
    partition: PartitionedDeployment | None = None
    # Group id when the query executes behind a shared prefix fragment
    # (its own ``fragments`` then hold just the tap fragment).
    shared_group: str | None = None
    # The canonical-order compilation used under shared execution; built
    # lazily and kept across redeploys so stateful suffix operators
    # survive re-sharing.
    canonical_plan: QueryPlan | None = None

    def canonical(self, catalog: StreamCatalog) -> QueryPlan:
        """The cached canonical plan (sharing-comparable operator order)."""
        if self.canonical_plan is None:
            self.canonical_plan = self.spec.build_canonical_plan(catalog)
        return self.canonical_plan

    @property
    def inherent_complexity(self) -> float:
        """p_k: expected evaluation CPU seconds per *result* tuple."""
        per_input = self.plan.cost_per_input_tuple()
        selectivity = max(self.plan.output_selectivity(), 1e-6)
        return per_input / selectivity


class Entity:
    """An entity's wrapper plus its processor cluster.

    Args:
        sim: The simulator.
        network: The shared network (gateway and processor nodes must
            already be registered; processors share the gateway's group).
        entity_id: Gateway network node id.
        processor_nodes: The entity's LAN processor nodes.
        catalog: Global stream catalog.
        processor_speed: Relative CPU speed of each processor.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        entity_id: str,
        processor_nodes: list[NetworkNode],
        catalog: StreamCatalog,
        *,
        processor_speed: float = 1.0,
    ) -> None:
        if not processor_nodes:
            raise ValueError(f"entity {entity_id} needs processors")
        self.sim = sim
        self.network = network
        self.entity_id = entity_id
        self.catalog = catalog
        self.processors: dict[str, SimProcessor] = {}
        self.engines: dict[str, LocalEngine] = {}
        for node in processor_nodes:
            proc = SimProcessor(sim, node.node_id, speed=processor_speed)
            self.processors[node.node_id] = proc
            self.engines[node.node_id] = LocalEngine(sim, proc)
        self.delegation = DelegationScheme(sorted(self.processors))
        self.hosted: dict[str, HostedQuery] = {}
        self.shared: dict[str, SharedDeployment] = {}
        self.result_handler: ResultHandler | None = None
        self.tuples_received = 0
        self.results_emitted = 0
        self.wiring = derive_wiring(self)
        # fragment id -> the processor running it under ``wiring``
        self._proc_of: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Query hosting
    # ------------------------------------------------------------------
    def host(self, spec: QuerySpec) -> HostedQuery:
        """Accept a query (compiled immediately, placed at deploy())."""
        if spec.query_id in self.hosted:
            raise ValueError(f"{spec.query_id} already hosted at {self.entity_id}")
        hosted = HostedQuery(spec=spec, plan=spec.build_plan(self.catalog))
        self.hosted[spec.query_id] = hosted
        return hosted

    def unhost(self, query_id: str) -> None:
        """Drop a query: a shared group's fan-out shrinks around it and
        delegation of streams nobody else reads is released.  Its
        fragments go at the next :meth:`rewire`."""
        hosted = self.hosted.pop(query_id, None)
        if hosted is not None:
            self.leave_group(hosted)
            self.release_delegation(hosted.spec.input_streams)

    def interests_by_stream(self) -> dict[str, list[StreamInterest]]:
        """The entity's data requirement, per stream (for dissemination)."""
        out: dict[str, list[StreamInterest]] = {}
        for hosted in self.hosted.values():
            for interest in hosted.spec.interests:
                out.setdefault(interest.stream_id, []).append(interest)
        return out

    def required_attributes_by_stream(self) -> dict[str, set[str] | None]:
        """Per stream, the attributes the hosted queries read.

        ``None`` means at least one query needs every attribute of that
        stream (disables ancestor projection, §3.1 "transforming").
        """
        out: dict[str, set[str] | None] = {}
        for hosted in self.hosted.values():
            for stream_id in hosted.spec.input_streams:
                needed = hosted.spec.required_attributes(stream_id)
                if stream_id not in out:
                    out[stream_id] = needed
                elif out[stream_id] is not None:
                    out[stream_id] = (
                        None if needed is None else out[stream_id] | needed
                    )
        return out

    # ------------------------------------------------------------------
    # Online edits (§4 inside a running entity): the hosting model
    # changes in place and operator state moves with the Fragment
    # objects; the caller re-derives the wiring (:meth:`rewire`)
    # ------------------------------------------------------------------
    def _anchor(self, streams: tuple[str, ...]) -> str:
        """The delegation processor of the dominant (fastest) stream."""
        dominant = max(streams, key=lambda s: self.catalog.schema(s).rate)
        procs = sorted(self.processors)
        delegate = self.delegation.delegate_of(dominant)
        return delegate if delegate in procs else procs[0]

    def place_chain(self, hosted: HostedQuery) -> None:
        """Choose the processors of a query's fragment chain: head at
        the dominant stream's delegate, successors round-robin."""
        procs = sorted(self.processors)
        start = procs.index(self._anchor(hosted.spec.input_streams))
        hosted.chain_procs = [
            procs[(start + i) % len(procs)]
            for i in range(len(hosted.fragments))
        ]

    def make_standalone(self, hosted: HostedQuery) -> None:
        """Give a query a one-fragment canonical chain of its own.

        Wraps the query's cached canonical plan instances: the private
        suffix operators (which ran inside its tap while it was shared)
        keep their window state; the prefix operators were shadowed by
        the shared instance and are stateless filters, so running them
        fresh is output-identical.
        """
        query_id = hosted.spec.query_id
        hosted.shared_group = None
        hosted.fragments = [
            Fragment(
                fragment_id=f"{query_id}#f0",
                query_id=query_id,
                index=0,
                operators=list(hosted.canonical(self.catalog).operators),
            )
        ]

    def ensure_delegation(self, streams: tuple[str, ...]) -> None:
        """Delegate every stream of ``streams`` not delegated yet."""
        for stream_id in streams:
            self.delegation.assign(
                stream_id, self.catalog.schema(stream_id).bytes_per_second
            )

    def release_delegation(self, streams: tuple[str, ...]) -> None:
        """Release the delegation of ``streams`` no hosted query reads."""
        still_needed = {
            s for other in self.hosted.values() for s in other.spec.input_streams
        }
        for stream_id in streams:
            if stream_id not in still_needed:
                self.delegation.release(
                    stream_id, self.catalog.schema(stream_id).bytes_per_second
                )

    def leave_group(self, hosted: HostedQuery) -> None:
        """Shrink a query's shared group's fan-out around it; the
        prefix keeps serving the others, and goes with the last one."""
        deployment = self.shared.get(hosted.shared_group)
        if deployment is None:
            return
        query_id = hosted.spec.query_id
        group = deployment.group
        group.taps.pop(query_id, None)
        deployment.tap_procs.pop(query_id, None)
        group.members = tuple(m for m in group.members if m != query_id)
        group.shared.members = group.members
        if not group.members:
            del self.shared[hosted.shared_group]

    def reshare(self) -> None:
        """Recompute the sharing groups at quiescence.

        Every stateless-prefix group is dissolved and the optimizer
        rerun (``allow_stateful=False``: a re-share must not fabricate
        shared window state mid-stream); queries that fall out of every
        group get standalone canonical chains.  Stateful groups formed
        at deploy time are left as they are — their members never move.
        """
        affected: set[str] = set()
        for gid in sorted(self.shared):
            deployment = self.shared[gid]
            if deployment.group.stateful:
                continue
            del self.shared[gid]
            for qid in deployment.tap_procs:
                member = self.hosted.get(qid)
                if member is not None:
                    member.shared_group = None
                    affected.add(qid)
        candidates = [
            h
            for h in self.hosted.values()
            if h.partition is None and h.shared_group is None
        ]
        groups = (
            plan_shared(
                [h.spec for h in candidates],
                {h.spec.query_id: h.canonical(self.catalog) for h in candidates},
                self.catalog,
                allow_stateful=False,
            )
            if len(candidates) >= 2
            else []
        )
        for group in groups:
            affected.difference_update(group.members)
            self._place_shared(group)
        for qid in sorted(affected):
            self.make_standalone(self.hosted[qid])
            self.place_chain(self.hosted[qid])

    def _place_shared(self, group: SharedGroup) -> None:
        """Deploy a freshly built group: the shared prefix at the
        anchor, member taps round-robin after it."""
        procs = sorted(self.processors)
        shared_proc = self._anchor(group.input_streams)
        start = procs.index(shared_proc)
        tap_procs: dict[str, str] = {}
        for offset, qid in enumerate(group.members):
            tap_procs[qid] = procs[(start + 1 + offset) % len(procs)]
            hosted = self.hosted[qid]
            hosted.shared_group = group.group_id
            # no reset: the tap slices the member's live suffix
            # instances, whose window state must survive the re-share
            hosted.fragments = [group.taps[qid]]
            hosted.chain_procs = [tap_procs[qid]]
        group.shared.reset_state()
        self.shared[group.group_id] = SharedDeployment(
            group, shared_proc, tap_procs
        )

    # ------------------------------------------------------------------
    # Deployment: delegation + fragmentation + placement + wiring
    # ------------------------------------------------------------------
    def deploy(
        self,
        *,
        placer: str = "pr",
        distribution_limit: int = 2,
        seed: int = 0,
        partition_parallelism: int = 1,
        shared_execution: bool = False,
    ) -> PlacementPlan:
        """(Re)deploy every hosted query onto the cluster.

        With ``partition_parallelism > 1``, queries whose plan contains
        a partitionable stage (exact-match window join, grouped
        aggregate) are deployed as partitioned operator fragments —
        pre-stage, N parallel partitions, order-preserving merge —
        instead of a linear chain.  With ``shared_execution``, plain
        chain queries whose canonical fingerprint prefixes coincide are
        rewritten into one shared prefix fragment fanning out to
        per-query taps (:mod:`repro.engine.sharing`).  Returns the
        placement plan so callers can inspect predicted load and
        traffic.
        """
        self.shared.clear()

        limit = max(1, distribution_limit)
        sharable: list[HostedQuery] = []
        for hosted in self.hosted.values():
            hosted.shared_group = None
            hosted.partition = (
                plan_partitioned(hosted.plan, partition_parallelism)
                if partition_parallelism > 1
                else None
            )
            if hosted.partition is None and shared_execution:
                sharable.append(hosted)

        groups: list[SharedGroup] = []
        if sharable:
            groups = plan_shared(
                [h.spec for h in sharable],
                {h.spec.query_id: h.canonical(self.catalog) for h in sharable},
                self.catalog,
            )
            for group in groups:
                for qid in group.members:
                    self.hosted[qid].shared_group = group.group_id

        jobs: list[PlacementJob] = []
        for hosted in self.hosted.values():
            if hosted.partition is not None:
                hosted.fragments = hosted.partition.fragments
                parallel_group = tuple(
                    f.fragment_id for f in hosted.partition.parts
                )
            elif hosted.shared_group is not None:
                # the member's only private fragment is its tap; the
                # shared prefix gets its own placement job below
                hosted.fragments = []
                parallel_group = ()
            elif shared_execution:
                # canonical compilation even when unshared, so a later
                # re-share can adopt this query's suffix instances
                hosted.fragments = fragment_plan(
                    hosted.canonical(self.catalog), limit
                )
                parallel_group = ()
            else:
                hosted.fragments = fragment_plan(hosted.plan, limit)
                parallel_group = ()
            streams = hosted.spec.input_streams
            self.ensure_delegation(streams)
            if hosted.shared_group is not None:
                continue
            jobs.append(
                PlacementJob(
                    query_id=hosted.spec.query_id,
                    fragments=hosted.fragments,
                    input_rate=hosted.spec.input_rate(self.catalog),
                    input_byte_rate=sum(
                        self.catalog.schema(s).bytes_per_second for s in streams
                    ),
                    delegate_proc=self._anchor(streams),
                    distribution_limit=limit,
                    parallel_group=parallel_group,
                )
            )
        jobs.extend(self._shared_jobs(groups, limit))

        speeds = {p: proc.speed for p, proc in self.processors.items()}
        plan = make_placer(placer, speeds, seed=seed).place(jobs)
        for hosted in self.hosted.values():
            hosted.chain_procs = [
                plan.assignment[f.fragment_id] for f in hosted.fragments
            ]
        for group in groups:
            self.shared[group.group_id] = SharedDeployment(
                group,
                plan.assignment[group.shared.fragment_id],
                {
                    qid: plan.assignment[group.taps[qid].fragment_id]
                    for qid in group.members
                },
            )
        self.rewire()
        return plan

    def _shared_jobs(
        self, groups: list[SharedGroup], limit: int
    ) -> list[PlacementJob]:
        """Placement jobs for shared prefixes and their member taps.

        The shared fragment anchors at the dominant stream's delegation
        processor like any head fragment; each member's tap is a
        separate single-fragment job at the prefix's output rate, so the
        placer spreads the private suffix work normally.
        """
        jobs: list[PlacementJob] = []
        for group in groups:
            schemas = [self.catalog.schema(s) for s in group.input_streams]
            input_rate = sum(schema.rate for schema in schemas)
            byte_rate = sum(schema.bytes_per_second for schema in schemas)
            anchor = self._anchor(group.input_streams)
            jobs.append(
                PlacementJob(
                    query_id=group.group_id,
                    fragments=[group.shared],
                    input_rate=input_rate,
                    input_byte_rate=byte_rate,
                    delegate_proc=anchor,
                    distribution_limit=1,
                )
            )
            tap_rate = input_rate * group.shared.selectivity()
            tap_byte_rate = byte_rate * group.shared.selectivity()
            for qid in group.members:
                tap = group.taps[qid]
                self.hosted[qid].fragments = [tap]
                jobs.append(
                    PlacementJob(
                        query_id=qid,
                        fragments=[tap],
                        input_rate=tap_rate,
                        input_byte_rate=tap_byte_rate,
                        delegate_proc=anchor,
                        distribution_limit=limit,
                    )
                )
        return jobs

    def rewire(self) -> None:
        """Re-derive the wiring from the hosting model and interpret it
        on the simulated cluster: every fragment is installed on its
        processor's engine, its outputs carried along whatever hops its
        out-edge routes them to.  A live run loads the same
        :attr:`wiring` (``LiveDataflow.rewire``)."""
        self.wiring = wiring = derive_wiring(self)
        self._proc_of = {
            fragment_id: proc
            for proc, fragments in wiring.fragments.items()
            for fragment_id in fragments
        }
        for proc, engine in self.engines.items():
            for fragment_id in engine.fragment_ids:
                engine.uninstall(fragment_id)
            for fragment_id, fragment in wiring.fragments[proc].items():
                engine.install(
                    fragment,
                    downstream=self._carry(
                        proc, wiring.downstream[proc][fragment_id]
                    ),
                )

    def _carry(self, proc: str, edge: Edge) -> Callable[[StreamTuple], None]:
        def downstream(tup: StreamTuple) -> None:
            for to_proc, target, tuples in edge.route([tup]):
                for out in tuples:
                    self._hop(proc, to_proc, target, out)

        return downstream

    def _hop(
        self, from_proc: str, to_proc: str | None, target: str, tup: StreamTuple
    ) -> None:
        """Carry one tuple from ``from_proc`` to fragment ``target`` on
        ``to_proc`` — inline when co-located, else over the LAN — or,
        with ``to_proc`` ``None``, to the gateway as a result of query
        ``target``."""
        if to_proc == from_proc:
            # not an engine: the item in service when the processor died
            if from_proc in self.engines:
                self._land(target, tup)
            return
        if to_proc is None:
            dst, deliver = self.entity_id, lambda t: self._emit_result(target, t)
        else:
            dst, deliver = to_proc, lambda t: self._land(target, t)
        self.network.send(
            from_proc, dst, tup.size, payload=tup, on_delivery=deliver
        )

    def _land(self, fragment_id: str, tup: StreamTuple) -> None:
        """Ingest a hop at its fragment wherever the current wiring runs
        it: a tuple in flight across an online edit reaches the fragment
        where the edit put it, and one whose fragment is gone drops."""
        proc = self._proc_of.get(fragment_id)
        if proc is not None:
            self.engines[proc].ingest(fragment_id, tup)

    def _emit_result(self, query_id: str, tup: StreamTuple) -> None:
        self.results_emitted += 1
        if self.result_handler is not None:
            self.result_handler(query_id, tup)

    # ------------------------------------------------------------------
    # Stream intake
    # ------------------------------------------------------------------
    def receive(self, tup: StreamTuple) -> None:
        """Handle a stream tuple arriving at the gateway.

        The gateway forwards to the stream's delegation processor over
        the LAN; the delegate then routes to the head fragment of every
        hosted query consuming the stream (§4's delegation scheme).
        """
        self.tuples_received += 1
        delegate = self.delegation.delegate_of(tup.stream_id)
        if delegate is None:
            return
        self.network.send(
            self.entity_id,
            delegate,
            tup.size,
            payload=tup,
            on_delivery=lambda t: self._route_from_delegate(delegate, t),
        )

    def _route_from_delegate(self, delegate: str, tup: StreamTuple) -> None:
        for fragment_id, proc in self.wiring.head_routes.get(
            tup.stream_id, ()
        ):
            self._hop(delegate, proc, fragment_id, tup)

    # ------------------------------------------------------------------
    # Processor failure (intra-entity adaptation)
    # ------------------------------------------------------------------
    def processor_failed(self, proc_id: str) -> None:
        """Drop a crashed processor from the hosting model, in place.

        The central administration the paper assumes inside an entity
        makes this simple: only its streams fail over, every fragment it
        ran moves to the first survivor, and only the queries it touched
        (a shared prefix touches every member) restart their state.  The
        caller re-derives the wiring.  Raises when the last one dies.
        """
        if proc_id not in self.processors:
            raise KeyError(proc_id)
        if len(self.processors) <= 1:
            raise RuntimeError(
                f"entity {self.entity_id} lost its last processor"
            )
        self.processors[proc_id].fail()
        if self.network.has_node(proc_id):
            self.network.node(proc_id).alive = False
        del self.processors[proc_id]
        del self.engines[proc_id]
        self.delegation.fail_processor(proc_id)
        home = min(self.processors)
        touched: set[str] = set()
        for deployment in self.shared.values():
            if deployment.shared_proc == proc_id:
                deployment.shared_proc = home
                deployment.group.shared.reset_state()
                touched.update(deployment.group.members)
            taps = deployment.tap_procs
            taps.update([(q, home) for q, p in taps.items() if p == proc_id])
        # a member's chain is its tap's processor
        for query_id, hosted in self.hosted.items():
            if proc_id in hosted.chain_procs:
                hosted.chain_procs = [
                    home if p == proc_id else p for p in hosted.chain_procs
                ]
                touched.add(query_id)
            if query_id in touched:
                self._restart(hosted)

    def reset_state(self) -> None:
        """Drop every hosted fragment's operator state and every
        partition router's sequencing state (a live run starts from the
        planned deployment)."""
        for hosted in self.hosted.values():
            self._restart(hosted)
        for deployment in self.shared.values():
            deployment.group.shared.reset_state()

    @staticmethod
    def _restart(hosted: HostedQuery) -> None:
        """Drop one query's private operator and router state."""
        for fragment in hosted.fragments:
            fragment.reset_state()
        if hosted.partition is not None:
            hosted.partition.router.reset()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def utilizations(self, elapsed: float) -> dict[str, float]:
        """Per-processor busy fraction over ``elapsed`` seconds."""
        return {
            p: proc.stats.utilization(elapsed)
            for p, proc in self.processors.items()
        }

    def max_backlog(self) -> float:
        """Largest queued service backlog across processors (seconds)."""
        return max(
            (proc.backlog_seconds for proc in self.processors.values()),
            default=0.0,
        )

    @property
    def query_count(self) -> int:
        """Number of hosted queries."""
        return len(self.hosted)
