"""Closed-loop adaptation: live repartitioning with online migration.

§3.2.2's repartitioning strategies exist in the allocation layer but —
before this module — only ever ran offline on planned rates.  Here the
loop is closed on the *running* federation:

1. **sample** — every control period (virtual seconds, paced by the
   run's :class:`~repro.live.entity_task.LiveClock`), read the observed
   per-query fragment CPU cost accumulated by
   :class:`~repro.live.metrics.LiveMetrics` since the previous round;
2. **rebuild** — reconstruct the :class:`~repro.allocation.query_graph.
   QueryGraph` and replace its planned vertex weights with the observed
   CPU rates, so drifting streams actually shift weight between parts;
3. **decide** — hand graph + current assignment to a pluggable
   repartitioner (default :class:`~repro.allocation.repartition.
   HybridRepartitioner`), but only when observed imbalance exceeds the
   adaptation threshold (the paper's "when load is not balanced");
4. **migrate** — execute the resulting moves through the online
   query-migration protocol of :class:`QueryMigrator`:
   *pause* (gate every source feed) → *drain* (wait for the dataflow to
   go quiescent, so no in-flight tuple can be lost) → *transfer* (move
   the query's live :class:`~repro.engine.plan.Fragment` objects —
   join/aggregate/sliding-window state intact — re-home the hosted
   query, re-run stream delegation, and re-chain intra-entity
   placement) → *resume* (reopen the gate);
5. **refresh** — re-derive every dissemination tree's interests from
   the new hosting so early filtering reflects the new placement:
   newly interested entities attach under their closest eligible
   parent, stale leaf relays detach.

Because the drain step empties every channel and batcher before any
fragment moves, migration is exactly-once by construction: the result
sets of an adaptive run and a static run of the same trace are
identical (asserted by the E17 bench and the live adaptation tests).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, replace

from repro.allocation.query_graph import QueryGraph, build_query_graph
from repro.analysis.invariants import audit_federation
from repro.allocation.repartition import (
    REPARTITIONER_NAMES,
    make_repartitioner,
)
from repro.dissemination.tree import SOURCE, DisseminationTree
from repro.engine.plan import Fragment
from repro.engine.sharing import (
    SharedDeployment,
    collect_stats,
    plan_shared,
    reinforce_query_graph,
)
from repro.live.entity_task import FeedGate
from repro.live.metrics import LiveMetrics, LiveReport
from repro.live.runtime import LiveDataflow, LiveRuntime, RuntimeService
from repro.monitoring.adaptation import AdaptationReport, AdaptationRound


@dataclass(frozen=True)
class AdaptationSettings:
    """Control-loop knobs of the :class:`Adaptation` service.

    Attributes:
        period: Virtual seconds between control rounds.
        strategy: Repartitioner name (``scratch``/``cut``/``hybrid``).
        imbalance_threshold: Observed max/ideal part-load ratio above
            which a round is allowed to migrate; below it the round
            only samples.  Kept above the repartitioners' own
            ``max_imbalance`` so the loop does not chase noise.
        max_imbalance: Balance target handed to the repartitioner.
        partition_skew_threshold: Observed routing skew (hottest
            partition's share over the ideal share) above which a
            partitioned operator gets a hot-key rebalance — executed
            under the same pause/drain quiescence as a migration.
        seed: Seed for the from-scratch strategy's partitioner.
    """

    period: float = 1.0
    strategy: str = "hybrid"
    imbalance_threshold: float = 1.25
    max_imbalance: float = 1.10
    partition_skew_threshold: float = 1.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.strategy not in REPARTITIONER_NAMES:
            raise ValueError(
                f"strategy must be one of {REPARTITIONER_NAMES}"
            )
        if self.imbalance_threshold < 1.0 or self.max_imbalance < 1.0:
            raise ValueError("imbalance bounds must be >= 1.0")
        if self.partition_skew_threshold < 1.0:
            raise ValueError("partition_skew_threshold must be >= 1.0")


class LoadSampler:
    """Turns cumulative busy-cost counters into per-window CPU rates."""

    def __init__(self, metrics: LiveMetrics) -> None:
        self.metrics = metrics
        self._last: dict[str, float] = {}
        self._last_time = 0.0

    def sample(self, now: float) -> dict[str, float]:
        """Observed CPU seconds/second per query since the last call.

        Only queries that have ever executed a fragment appear; for the
        rest the caller falls back to the planner's estimate.
        """
        span = max(1e-9, now - self._last_time)
        self._last_time = now
        current = dict(self.metrics.query_busy_cost)
        rates = {
            query_id: (cost - self._last.get(query_id, 0.0)) / span
            for query_id, cost in current.items()
        }
        self._last = current
        return rates


class QueryMigrator:
    """The online query-migration protocol.

    Executes a set of ``(query_id, source_entity, target_entity)``
    moves against a *running* dataflow: pause → drain → transfer →
    interest refresh → resume.  Operator state moves with the live
    :class:`~repro.engine.plan.Fragment` objects; nothing is reset.

    Every mutator below edits the planner's hosting model (who hosts
    what, on which processors, in which shared group) and then calls
    :meth:`_rewire`, which re-derives the touched entities' execution
    tables from that model — nothing here writes a table entry itself.
    """

    def __init__(
        self,
        runtime: LiveRuntime,
        flow: LiveDataflow,
        gate: FeedGate,
        metrics: AdaptationReport,
    ) -> None:
        self.runtime = runtime
        self.flow = flow
        self.gate = gate
        self.metrics = metrics

    # ------------------------------------------------------------------
    async def execute(self, moves: list[tuple[str, str, str]]) -> float:
        """Run the protocol for ``moves``; returns pause wall seconds.

        Under the same pause → drain quiescence, every entity touched by
        a move gets its shared-computation groups recomputed afterwards
        (a member migrating out splits its group; the arrival may open a
        new sharing opportunity at the target).
        """
        started = time.perf_counter()
        applied: list[tuple[str, str, str]] = []
        self.gate.close()
        try:
            try:
                await self._drain()
                for query_id, src_id, dst_id in sorted(moves):
                    applied.append((query_id, src_id, dst_id))
                    self._transfer(query_id, src_id, dst_id)
                if self.runtime.config.shared_execution:
                    touched = self._touched(moves)
                    for entity_id in touched:
                        self._reshare_entity(entity_id)
                    self.metrics.record_reshare(len(touched))
                self._refresh_trees()
            except asyncio.CancelledError:
                raise
            except Exception:
                # A failure between close-gate and resume must not leave
                # the dataflow half-migrated behind a permanently closed
                # gate: repair the moves that started to a consistent
                # placement, then let the finally reopen the feeds.  A
                # round that died before its first transfer (e.g. inside
                # the drain, so quiescence cannot be assumed) left the
                # wiring untouched — repairing untouched moves would
                # re-home chains under live in-flight tuples.
                if applied:
                    self._abort_repair(applied)
                self.metrics.record_abort()
        finally:
            self.gate.open()
        return time.perf_counter() - started

    async def _drain(self) -> None:
        """Wait until no tuple is in flight anywhere in the dataflow.

        Feeds flush their partial batches before parking at the gate,
        and every gateway/processor flushes its senders at the end of
        each inbox iteration, so once all live feeds are parked and the
        work tracker reads zero, every channel and sender is empty.
        """
        spins = 0
        while True:
            active = sum(
                1 for feed in self.flow.feeds if not feed.finished
            )
            if self.gate.waiting >= active:
                break
            spins += 1
            # yield first (as-fast-as-possible runs park within a few
            # scheduler ticks); back off to real sleeps for paced runs
            await asyncio.sleep(0.0 if spins < 64 else 0.001)
        await self.flow.tracker.wait_quiescent()

    # ------------------------------------------------------------------
    # Public lifecycle surface (used by the control plane's dynamic
    # registration/teardown; every call assumes the gate is closed and
    # the dataflow drained — see :meth:`quiesce`)
    # ------------------------------------------------------------------
    async def quiesce(self) -> None:
        """Wait for full quiescence (public alias of the drain step)."""
        await self._drain()

    def register_query(self, entity_id: str, hosted) -> None:
        """Wire a freshly adopted query into the running dataflow.

        The query arrives as a single-fragment canonical chain (dynamic
        arrivals have no operator state to preserve and no placement
        history to respect); delegation is extended to any input stream
        the entity was not yet subscribed to, and the chain is anchored
        at the dominant stream's delegate like any migrated query.
        """
        entity = self.runtime.planner.entities[entity_id]
        self._make_standalone(hosted)
        self._ensure_delegation(entity, hosted.spec.input_streams)
        self._place_chain(entity, hosted)
        self._rewire(entity_id)

    def retire_query(self, entity_id: str, hosted) -> None:
        """Detach a departing query from the running dataflow.

        Colocated queries are undisturbed: a shared-group member only
        loses its private tap (the group's fan-out shrinks around it;
        the shared prefix — even a stateful one — keeps serving the
        remaining members, and is removed only when the last member
        leaves).  Delegation for streams no other hosted query needs is
        released.
        """
        entity = self.runtime.planner.entities[entity_id]
        query_id = hosted.spec.query_id
        entity.unhost(query_id)
        deployment = entity.shared.get(hosted.shared_group)
        if deployment is not None:
            self._leave_group(deployment, query_id)
            if not deployment.group.members:
                del entity.shared[hosted.shared_group]
        self._release_unneeded(entity, hosted.spec.input_streams)
        self._rewire(entity_id)

    def reshare(self, entity_id: str) -> None:
        """Recompute one entity's sharing groups (public wrapper)."""
        self._reshare_entity(entity_id)

    def refresh_trees(self) -> None:
        """Re-derive tree membership/filters (public wrapper)."""
        self._refresh_trees()

    # ------------------------------------------------------------------
    async def rebalance_partitions(self, threshold: float) -> int:
        """Skew-triggered hot-key rebalance of partitioned operators.

        Scans every partition-parallel hosted query and, when observed
        routing skew exceeds ``threshold``, reruns the greedy hot-key
        override placement and redistributes clone state — under the
        same pause → drain quiescence as a migration, so no in-flight
        event can straddle the old and new partition function.  Returns
        the number of deployments whose spec actually changed.
        """
        planner = self.runtime.planner
        targets = []
        for __, entity in sorted(planner.entities.items()):
            for query_id, hosted in sorted(entity.hosted.items()):
                deployment = hosted.partition
                if deployment is None:
                    continue
                if (
                    sum(deployment.router.partition_counts)
                    and deployment.skew() > threshold
                ):
                    targets.append(deployment)
        if not targets:
            return 0
        self.gate.close()
        try:
            await self._drain()
            changed = sum(
                1 for deployment in targets if deployment.rebalance()
            )
        finally:
            self.gate.open()
        self.metrics.record_rebalance(changed)
        return changed

    # ------------------------------------------------------------------
    def _transfer(self, query_id: str, src_id: str, dst_id: str) -> None:
        """Move one query — fragments, state, routes — between entities."""
        planner = self.runtime.planner
        src = planner.entities[src_id]
        dst = planner.entities[dst_id]
        hosted = src.hosted.pop(query_id, None)
        if hosted is None:
            return
        dst.hosted[query_id] = hosted
        planner.allocation_result.assignment[query_id] = dst_id
        if hosted.shared_group is not None:
            # Split the member out of its shared group before the chain
            # transfer: it leaves with a standalone canonical chain
            # (private suffix instances keep their state; the stateless
            # prefix is rebuilt fresh, which is output-identical).
            self._detach_shared(src, hosted)
        streams = hosted.spec.input_streams
        self._release_unneeded(src, streams)
        for stream_id in streams:
            schema = planner.catalog.schema(stream_id)
            dst.delegation.assign(stream_id, schema.bytes_per_second)
        self._place_chain(dst, hosted)
        self._rewire(src_id, dst_id)
        self.metrics.record_transfer(len(hosted.fragments))

    @staticmethod
    def _touched(moves: list[tuple[str, str, str]]) -> list[str]:
        """Every entity a move list takes from or gives to, sorted."""
        return sorted({e for __, src, dst in moves for e in (src, dst)})

    def _rewire(self, *entity_ids: str) -> None:
        """Re-derive the given entities' execution tables in place."""
        for entity_id in entity_ids:
            self.flow.rewire(self.runtime.planner.entities[entity_id])

    # ------------------------------------------------------------------
    # Placement policy (model edits only; the caller rewires)
    # ------------------------------------------------------------------
    def _anchor_proc(self, entity, input_streams) -> str:
        """The delegation processor of the dominant input stream."""
        catalog = self.runtime.planner.catalog
        dominant = max(
            input_streams, key=lambda s: catalog.schema(s).rate
        )
        procs = sorted(entity.processors)
        delegate = entity.delegation.delegate_of(dominant)
        return delegate if delegate in procs else procs[0]

    def _place_chain(self, entity, hosted) -> None:
        """Choose the processors of a hosted query's fragment chain:
        head at the dominant stream's delegate, successors round-robin.
        The fragment objects stay as they are — operator state moves
        with them."""
        procs = sorted(entity.processors)
        start = procs.index(
            self._anchor_proc(entity, hosted.spec.input_streams)
        )
        hosted.chain_procs = [
            procs[(start + i) % len(procs)]
            for i in range(len(hosted.fragments))
        ]

    def _place_shared(self, entity, group) -> None:
        """Choose the processors of a freshly built group: the shared
        prefix at the anchor, member taps round-robin after it."""
        procs = sorted(entity.processors)
        shared_proc = self._anchor_proc(entity, group.input_streams)
        start = procs.index(shared_proc)
        tap_procs: dict[str, str] = {}
        for offset, qid in enumerate(group.members):
            tap_procs[qid] = procs[(start + 1 + offset) % len(procs)]
            hosted = entity.hosted[qid]
            hosted.shared_group = group.group_id
            # no reset: the tap slices the member's live suffix
            # instances, whose window state must survive the re-share
            hosted.fragments = [group.taps[qid]]
            hosted.chain_procs = [tap_procs[qid]]
        group.shared.reset_state()
        entity.shared[group.group_id] = SharedDeployment(
            group, shared_proc, tap_procs
        )

    def _make_standalone(self, hosted) -> None:
        """Give a query a one-fragment canonical chain of its own.

        Wraps the query's cached canonical plan instances: the private
        suffix operators (which executed inside the tap fragment) keep
        their window state; the prefix operators were shadowed by the
        shared instance and are stateless filters, so running them fresh
        is output-identical.
        """
        query_id = hosted.spec.query_id
        ops = hosted.canonical(self.runtime.planner.catalog).operators
        hosted.shared_group = None
        hosted.fragments = [
            Fragment(
                fragment_id=f"{query_id}#f0",
                query_id=query_id,
                index=0,
                operators=list(ops),
            )
        ]

    def _ensure_delegation(self, entity, streams) -> None:
        """Assign a delegate for any input stream missing one."""
        catalog = self.runtime.planner.catalog
        for stream_id in streams:
            if entity.delegation.delegate_of(stream_id) is None:
                entity.delegation.assign(
                    stream_id, catalog.schema(stream_id).bytes_per_second
                )

    def _release_unneeded(self, entity, streams) -> None:
        """Release delegation of ``streams`` no hosted query reads."""
        catalog = self.runtime.planner.catalog
        still_needed = {
            s
            for other in entity.hosted.values()
            for s in other.spec.input_streams
        }
        for stream_id in streams:
            if stream_id not in still_needed:
                entity.delegation.release(
                    stream_id, catalog.schema(stream_id).bytes_per_second
                )

    # ------------------------------------------------------------------
    # Abort repair (gate still closed)
    # ------------------------------------------------------------------
    def _abort_repair(self, moves: list[tuple[str, str, str]]) -> None:
        """Roll a failed migration round back to a consistent placement.

        Each moved query is re-anchored at whichever entity currently
        records it as hosted (live fragment objects keep their operator
        state).  Members still inside a shared group simply return to
        the source untouched.  Re-deriving both endpoints then drops
        whatever a partially applied transfer left behind; sharing
        groups on every touched entity are recomputed — re-attaching
        any member a partial detach left standalone — and the trees
        re-derived.
        """
        planner = self.runtime.planner
        for query_id, src_id, dst_id in sorted(moves):
            src = planner.entities[src_id]
            dst = planner.entities[dst_id]
            hosted = dst.hosted.get(query_id) or src.hosted.get(query_id)
            if hosted is None:
                continue
            if hosted.shared_group is not None:
                # The member never left its group: only the hosting
                # bookkeeping may have moved.  Put it back.
                dst.hosted.pop(query_id, None)
                src.hosted[query_id] = hosted
                planner.allocation_result.assignment[query_id] = src_id
                continue
            host = dst if query_id in dst.hosted else src
            planner.allocation_result.assignment[query_id] = host.entity_id
            self._ensure_delegation(host, hosted.spec.input_streams)
            self._place_chain(host, hosted)
        touched = self._touched(moves)
        self._rewire(*touched)
        if self.runtime.config.shared_execution:
            for entity_id in touched:
                self._reshare_entity(entity_id)
        self._refresh_trees()

    # ------------------------------------------------------------------
    # Shared-computation model edits (all under the closed gate)
    # ------------------------------------------------------------------
    @staticmethod
    def _leave_group(deployment, query_id: str) -> None:
        """Shrink a shared group's fan-out around a departing member."""
        group = deployment.group
        group.taps.pop(query_id, None)
        deployment.tap_procs.pop(query_id, None)
        group.members = tuple(m for m in group.members if m != query_id)
        group.shared.members = group.members

    def _detach_shared(self, src, hosted) -> None:
        """Remove one member from its shared group (gate closed).

        The group's fan-out shrinks around the member, which continues
        as a standalone canonical chain that the caller's transfer then
        re-homes.  The remaining group (possibly down to one member) is
        rebuilt by the post-move :meth:`_reshare_entity` pass over the
        source entity.
        """
        deployment = src.shared.get(hosted.shared_group)
        if deployment is not None:
            if deployment.group.stateful:
                raise ValueError(
                    f"cannot migrate {hosted.spec.query_id}: member of "
                    f"stateful shared group {hosted.shared_group}"
                )
            self._leave_group(deployment, hosted.spec.query_id)
        self._make_standalone(hosted)

    def _reshare_entity(self, entity_id: str) -> None:
        """Recompute one entity's sharing groups at quiescence.

        Every stateless-prefix group is dissolved and the optimizer
        rerun (``allow_stateful=False`` — a re-share must not fabricate
        shared window state mid-stream); queries that fall out of every
        group get standalone canonical chains.  Stateful groups formed
        at deploy time are left untouched — their members are pinned
        against migration, so their wiring cannot have changed.
        """
        planner = self.runtime.planner
        entity = planner.entities[entity_id]
        affected: set[str] = set()
        for gid in sorted(entity.shared):
            deployment = entity.shared[gid]
            if deployment.group.stateful:
                continue
            del entity.shared[gid]
            for qid in deployment.tap_procs:
                member = entity.hosted.get(qid)
                if member is not None:
                    member.shared_group = None
                    affected.add(qid)
        candidates = [
            h
            for h in entity.hosted.values()
            if h.partition is None and h.shared_group is None
        ]
        groups = (
            plan_shared(
                [h.spec for h in candidates],
                {
                    h.spec.query_id: h.canonical(planner.catalog)
                    for h in candidates
                },
                planner.catalog,
                allow_stateful=False,
            )
            if len(candidates) >= 2
            else []
        )
        for group in groups:
            affected.difference_update(group.members)
            self._place_shared(entity, group)
        for qid in sorted(affected):
            self._make_standalone(entity.hosted[qid])
            self._place_chain(entity, entity.hosted[qid])
        self._rewire(entity_id)

    # ------------------------------------------------------------------
    def _refresh_trees(self) -> None:
        """Re-derive every tree's membership/filters from the hosting.

        Trees are mutated *in place* (the source feeds hold direct
        references to these objects), so attach/detach/interest changes
        are visible to every forwarder immediately.
        """
        planner = self.runtime.planner
        per_entity_interests = {
            entity_id: entity.interests_by_stream()
            for entity_id, entity in planner.entities.items()
        }
        per_entity_attrs = {
            entity_id: entity.required_attributes_by_stream()
            for entity_id, entity in planner.entities.items()
        }
        attaches = detaches = 0
        for stream_id, tree in sorted(self.flow.trees.items()):
            interested = {
                entity_id: interests[stream_id]
                for entity_id, interests in per_entity_interests.items()
                if stream_id in interests
            }
            for entity_id in sorted(interested):
                if not tree.contains(entity_id):
                    self._attach_closest(tree, stream_id, entity_id)
                    attaches += 1
            for entity_id in tree.entities:
                if entity_id in interested:
                    tree.set_interests(entity_id, interested[entity_id])
                    tree.set_required_attributes(
                        entity_id,
                        per_entity_attrs[entity_id].get(stream_id),
                    )
                else:
                    # pure relay (or stale member): forwards only what
                    # its subtree needs, reads nothing itself
                    tree.set_interests(entity_id, [])
                    tree.set_required_attributes(entity_id, set())
            # prune leaves nobody needs, bottom-up
            while True:
                removable = [
                    entity_id
                    for entity_id in tree.entities
                    if entity_id not in interested
                    and not tree.children_of(entity_id)
                ]
                if not removable:
                    break
                for entity_id in sorted(removable):
                    tree.detach(entity_id)
                    detaches += 1
        self.metrics.record_tree_update(attaches, detaches)

    def _attach_closest(
        self, tree: DisseminationTree, stream_id: str, entity_id: str
    ) -> None:
        """Attach a newly interested entity under the nearest node with
        fanout to spare (leaves always qualify, so one always exists)."""
        network = self.runtime.planner.network
        node = network.node(entity_id)
        source_node = network.node(
            self.runtime.planner.source_node_of(stream_id)
        )

        def position(candidate: str) -> tuple[float, float]:
            if candidate == SOURCE:
                return (source_node.x, source_node.y)
            member = network.node(candidate)
            return (member.x, member.y)

        candidates = [
            member
            for member in [SOURCE] + sorted(tree.entities)
            if tree.fanout(member) < tree.max_fanout
        ]
        best = min(
            candidates,
            key=lambda member: (
                (position(member)[0] - node.x) ** 2
                + (position(member)[1] - node.y) ** 2,
                member,
            ),
        )
        tree.attach(entity_id, parent=best)


class AdaptationController:
    """The periodic control loop: sample → rebuild → decide → migrate."""

    def __init__(
        self,
        runtime: LiveRuntime,
        flow: LiveDataflow,
        gate: FeedGate,
        settings: AdaptationSettings,
        metrics: AdaptationReport,
    ) -> None:
        self.runtime = runtime
        self.flow = flow
        self.settings = settings
        self.metrics = metrics
        self.sampler = LoadSampler(runtime.metrics)
        self.migrator = QueryMigrator(runtime, flow, gate, metrics)
        self.repartitioner = make_repartitioner(
            settings.strategy,
            max_imbalance=settings.max_imbalance,
            seed=settings.seed,
        )

    async def run(self) -> None:
        """Run rounds forever; the runtime cancels us at quiescence."""
        next_round = self.settings.period
        while True:
            await self.flow.clock.wait_until(next_round)
            await self._round(self.flow.clock.now)
            next_round += self.settings.period

    # ------------------------------------------------------------------
    def _observed_graph(
        self, now: float
    ) -> tuple[QueryGraph, dict[str, int], list[str]]:
        """The query graph with observed vertex weights, the current
        assignment in part indices, and the part→entity id mapping."""
        planner = self.runtime.planner
        queries = planner.queries
        graph = build_query_graph(queries, planner.catalog)
        observed = self.sampler.sample(now)
        for query_id, rate in observed.items():
            if query_id in graph.vertex_weights:
                graph.vertex_weights[query_id] = rate
        # Realized sharing raises member-pair edge weights: separating
        # a group re-evaluates the prefix per query and re-ships data,
        # so the partitioner should prefer cutting elsewhere.
        reinforce_query_graph(
            graph,
            {
                entity_id: entity.shared
                for entity_id, entity in planner.entities.items()
            },
            planner.catalog,
        )
        entity_ids = sorted(planner.entities)
        part_of = {
            entity_id: part for part, entity_id in enumerate(entity_ids)
        }
        current = {
            query_id: part_of[entity_id]
            for query_id, entity_id in (
                planner.allocation_result.assignment.items()
            )
            if entity_id in part_of and query_id in graph.vertex_weights
        }
        return graph, current, entity_ids

    async def _round(self, now: float) -> None:
        """One control round; migrates only on observed overload."""
        planner = self.runtime.planner
        await self.migrator.rebalance_partitions(
            self.settings.partition_skew_threshold
        )
        parts = len(planner.entities)
        if parts < 2 or not planner.queries:
            return
        graph, current, entity_ids = self._observed_graph(now)
        imbalance = graph.imbalance(current, parts)
        if imbalance <= self.settings.imbalance_threshold:
            self.metrics.record_round(
                AdaptationRound(
                    virtual_time=now,
                    imbalance_before=imbalance,
                    imbalance_after=imbalance,
                    migrations=0,
                    decision_seconds=0.0,
                    pause_wall_seconds=0.0,
                )
            )
            return
        outcome = self.repartitioner.repartition(graph, current, parts)
        # Partition-parallel queries are pinned: their fan-out wiring
        # (router routes, spread placement) is entity-local state the
        # chain-shaped transfer protocol cannot re-home; skew inside
        # them is handled by rebalance_partitions instead.
        pinned = {
            query_id
            for entity in planner.entities.values()
            for query_id, hosted in entity.hosted.items()
            if hosted.partition is not None
        }
        # Members of stateful shared groups are pinned too: splitting
        # their group would need a per-member copy of the shared
        # join/aggregate window state.  Stateless groups stay movable —
        # the migrator splits and re-shares them under quiescence.
        pinned |= {
            query_id
            for entity in planner.entities.values()
            for deployment in entity.shared.values()
            if deployment.group.stateful
            for query_id in deployment.group.members
        }
        moves = [
            (query_id, entity_ids[current[query_id]], entity_ids[part])
            for query_id, part in sorted(outcome.assignment.items())
            if query_id in current
            and query_id not in pinned
            and current[query_id] != part
        ]
        pause = 0.0
        if moves and outcome.imbalance < imbalance:
            pause = await self.migrator.execute(moves)
            self.metrics.gross_moves += outcome.gross_moves
            applied = len(moves)
            after = outcome.imbalance
            # Audit the structures the migration just rewired: a bug in
            # the pause → drain → transfer → refresh protocol shows up
            # here as a violation, not as silently wrong results later.
            violations = audit_federation(
                planner, dataflow=self.flow
            )
            self.metrics.record_audit(len(violations))
        else:
            applied = 0
            after = imbalance
        self.metrics.record_sharing(
            collect_stats(
                {
                    entity_id: entity.shared
                    for entity_id, entity in planner.entities.items()
                },
                planner.catalog,
            )
        )
        self.metrics.record_round(
            AdaptationRound(
                virtual_time=now,
                imbalance_before=imbalance,
                imbalance_after=after,
                migrations=applied,
                decision_seconds=outcome.decision_seconds,
                pause_wall_seconds=pause,
            )
        )


class Adaptation(RuntimeService):
    """The §3.2.2 adaptation loop, beside a running :class:`LiveRuntime`.

    Gates every source feed behind one :class:`FeedGate`, spawns an
    :class:`AdaptationController` alongside the dataflow and attaches
    its :class:`~repro.monitoring.adaptation.AdaptationReport` to the
    run's :class:`~repro.live.metrics.LiveReport`.  ``gate`` and (once
    started) ``migrator`` are what the control plane borrows.
    """

    def __init__(self, settings: AdaptationSettings | None = None) -> None:
        self.settings = settings or AdaptationSettings()
        self.gate = FeedGate()
        self.report = AdaptationReport(self.settings.strategy)
        self.controller: AdaptationController | None = None

    @property
    def migrator(self) -> QueryMigrator:
        """The running loop's migrator (exists once the run started)."""
        return self.controller.migrator

    def attach(self, runtime: LiveRuntime) -> None:
        self.runtime = runtime

    def start(self, flow: LiveDataflow) -> list[asyncio.Task]:
        for feed in flow.feeds:
            feed.gate = self.gate
        self.controller = AdaptationController(
            self.runtime, flow, self.gate, self.settings, self.report
        )
        return [
            asyncio.create_task(
                self.controller.run(), name="live:adaptation"
            )
        ]

    def finish(self, report: LiveReport, flow: LiveDataflow) -> LiveReport:
        return replace(report, adaptation=self.report)
