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
   protocol of :class:`QueryMigrator`: *pause* (gate every source
   feed) → *drain* (wait for the dataflow to go quiescent, so no
   in-flight tuple can be lost) → *edit* (the planner's
   :meth:`~repro.core.system.FederatedSystem.migrate`: the queries'
   live :class:`~repro.engine.plan.Fragment` objects move —
   join/aggregate/sliding-window state intact — delegation and chain
   placement follow, the touched entities re-share, and every
   dissemination tree is refreshed in place) → *rewire* (load the
   re-derived wiring into the running tasks) → *resume* (reopen the
   gate).

Because the drain step empties every channel and batcher before any
fragment moves, migration is exactly-once by construction: the result
sets of an adaptive run and a static run of the same trace are
identical (asserted by the E17 bench and the live adaptation tests).
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.allocation.query_graph import QueryGraph, build_query_graph
from repro.analysis.invariants import audit_federation
from repro.allocation.repartition import (
    REPARTITIONER_NAMES,
    make_repartitioner,
)
from repro.engine.sharing import collect_stats, reinforce_query_graph
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
    """The online lifecycle protocol: pause → drain → edit → rewire →
    resume.

    The edits are the planner's (:meth:`~repro.core.system.
    FederatedSystem.edit`): they change the hosting model in place —
    operator state moves with the live :class:`~repro.engine.plan.
    Fragment` objects, nothing is reset — and re-derive the touched
    entities' wiring, which :meth:`_rewire` then loads into the running
    tasks.  Nothing here writes a table entry or decides a placement.
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
    async def apply(self, edit: Callable[[], list[str]]) -> None:
        """Run one planner edit at quiescence and load what it derived."""
        self.gate.close()
        try:
            await self._drain()
            self._rewire(edit())
        finally:
            self.gate.open()

    async def execute(self, moves: list[tuple[str, str, str]]) -> float:
        """Migrate ``moves`` (one :meth:`~repro.core.system.
        FederatedSystem.migrate` edit); returns pause wall seconds."""
        started = time.perf_counter()
        planner = self.runtime.planner
        moves = sorted(moves)
        drained = False
        self.gate.close()
        try:
            try:
                await self._drain()
                drained = True
                fragments = sum(
                    len(planner.entities[src_id].hosted[query_id].fragments)
                    for query_id, src_id, __ in moves
                    if query_id in planner.entities[src_id].hosted
                )
                touched = planner.migrate(moves)
                self._rewire(touched)
                self.metrics.record_transfer(fragments)
                if self.runtime.config.shared_execution:
                    self.metrics.record_reshare(len(touched))
            except asyncio.CancelledError:
                raise
            except Exception:
                # A failure between close-gate and resume must not leave
                # the dataflow half-migrated behind a permanently closed
                # gate: repair the round to a consistent placement, then
                # let the finally reopen the feeds.  A round that died
                # inside the drain (so quiescence cannot be assumed) left
                # the wiring untouched — repairing it would re-home
                # chains under live in-flight tuples.
                if drained:
                    self._abort_repair(moves)
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
    def _rewire(self, entity_ids: list[str]) -> None:
        """Load the given entities' re-derived wiring into the tasks."""
        for entity_id in entity_ids:
            self.flow.rewire(self.runtime.planner.entities[entity_id])

    def _abort_repair(self, moves: list[tuple[str, str, str]]) -> None:
        """Roll a failed migration round back to a consistent placement.

        Each moved query is re-anchored at whichever entity currently
        records it as hosted (live fragment objects keep their operator
        state).  Members still inside a shared group simply return to
        the source untouched.  Settling both endpoints then drops
        whatever a partially applied transfer left behind, re-shares
        them — re-attaching any member a partial detach left standalone
        — and refreshes the trees.
        """
        planner = self.runtime.planner
        assignment = planner.allocation_result.assignment
        for query_id, src_id, dst_id in moves:
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
                assignment[query_id] = src_id
                continue
            host = dst if query_id in dst.hosted else src
            assignment[query_id] = host.entity_id
            host.ensure_delegation(hosted.spec.input_streams)
            host.place_chain(hosted)
        self._rewire(
            planner.settle({e for __, src, dst in moves for e in (src, dst)})
        )


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
        planner = self.runtime.planner
        self.report.record_tree_update(
            planner.tree_attaches, planner.tree_detaches
        )
        return replace(report, adaptation=self.report)
