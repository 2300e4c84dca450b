"""Failure detection and failover for the live federation runtime.

The paper's adaptability mechanisms all have a failure-time face:
§3.2.1's coordinator clusters heal around a silent member, §3.1's
dissemination trees re-parent a dead relay's subtrees, and §4's
delegation re-assigns a dead processor's streams to a survivor.  This
module wires those (clock-free) repairs to a live failure signal:

* :class:`HeartbeatMonitor` — one centralized heartbeat loop over the
  federation's gateways and processors.  Each interval every live node
  "beats"; a node silent for ``detection_multiplier`` intervals is
  declared dead exactly once and handed to the failure callback.
* :class:`RecoveryManager` — executes the repairs.  An entity failure
  re-parents its dissemination subtrees
  (:func:`~repro.dissemination.maintenance.repair_after_crash`) and
  repairs the coordinator tree
  (:class:`~repro.coordination.membership.MembershipRepair`); a
  processor failure re-delegates its streams
  (:meth:`~repro.placement.delegation.DelegationScheme.fail_processor`),
  re-homes its fragments onto a survivor in the hosting model,
  re-derives the entity's wiring from it, and replays the gateway's
  buffered delegate tuples to the new delegate (at-least-once: replay
  may duplicate).

Everything iterates in sorted order and takes time only from the
caller-supplied ``now`` callable, so chaos runs stay deterministic.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

from repro.coordination.membership import MembershipRepair
from repro.dissemination.maintenance import repair_after_crash
from repro.live.runtime import LiveDataflow
from repro.monitoring.recovery import RecoveryReport


class HeartbeatMonitor:
    """Centralized heartbeat exchange and crash detection.

    Args:
        nodes: Every monitored node id (entity ids and processor ids),
            checked in the given order each round.
        is_alive: Liveness probe (reads the node's
            :class:`~repro.live.entity_task.TaskControl`).
        on_failure: Awaited once per detected crash.
        metrics: Recovery counters (heartbeats, detections).
        interval: Seconds between heartbeat rounds.
        detection_multiplier: A node is declared dead after
            ``detection_multiplier * interval`` of silence.
    """

    def __init__(
        self,
        nodes: list[str],
        is_alive: Callable[[str], bool],
        on_failure: Callable[[str], Awaitable[None]],
        metrics: RecoveryReport,
        *,
        interval: float = 0.05,
        detection_multiplier: float = 3.0,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if detection_multiplier < 1:
            raise ValueError("detection_multiplier must be >= 1")
        self.nodes = list(nodes)
        self.is_alive = is_alive
        self.on_failure = on_failure
        self.metrics = metrics
        self.interval = interval
        self.detection_multiplier = detection_multiplier
        self.last_beat: dict[str, float] = {}
        self.detected: set[str] = set()

    async def run(self) -> None:
        """Beat and detect until cancelled by the runtime."""
        loop = asyncio.get_running_loop()
        start = loop.time()
        for node in self.nodes:
            self.last_beat[node] = start
        silence = self.detection_multiplier * self.interval
        while True:
            await asyncio.sleep(self.interval)
            now = loop.time()
            for node in self.nodes:
                if node in self.detected:
                    continue
                if self.is_alive(node):
                    self.last_beat[node] = now
                    self.metrics.heartbeats_sent += 1
                elif now - self.last_beat[node] >= silence:
                    self.detected.add(node)
                    self.metrics.record_detection(node, now)
                    await self.on_failure(node)


class RecoveryManager:
    """Executes failover once a crash has been detected.

    Args:
        planner: The run's :class:`~repro.core.system.FederatedSystem`
            (source positions, entity positions, coordinator tree,
            delegation schemes).
        flow: The live dataflow being repaired.
        metrics: Recovery counters.
        now: Virtual-time source used to stamp completed recoveries.
        replay: Whether failover replays the gateway's buffered
            delegate tuples to the new delegate.
    """

    def __init__(
        self,
        planner,
        flow: LiveDataflow,
        metrics: RecoveryReport,
        *,
        now: Callable[[], float],
        replay: bool = True,
    ) -> None:
        self.planner = planner
        self.flow = flow
        self.metrics = metrics
        self.now = now
        self.replay = replay
        self.coordinator = MembershipRepair(planner.portal.tree)

    # ------------------------------------------------------------------
    async def on_failure(self, node_id: str) -> None:
        """Repair around one detected crash (entity or processor)."""
        if node_id in self.flow.gateways:
            self._recover_entity(node_id)
        else:
            entity_id = self.flow.entity_of_processor(node_id)
            if entity_id is not None:
                await self._recover_processor(entity_id, node_id)
        self.metrics.record_recovery(node_id, self.now())

    # ------------------------------------------------------------------
    def _recover_entity(self, entity_id: str) -> None:
        """Re-parent dissemination subtrees, repair the coordinator
        tree.  Queries hosted on the dead entity are not re-homed —
        their results are simply lost (measured as reduced results)."""
        network = self.planner.network
        positions = {
            e: (network.node(e).x, network.node(e).y)
            for e in sorted(self.planner.entities)
            if network.has_node(e)
        }
        for stream_id in sorted(self.flow.trees):
            tree = self.flow.trees[stream_id]
            src = network.node(self.planner.source_node_of(stream_id))
            self.metrics.reparented_children += repair_after_crash(
                tree, entity_id, (src.x, src.y), positions
            )
        if self.coordinator.repair(entity_id):
            self.metrics.coordinator_repairs += 1

    # ------------------------------------------------------------------
    async def _recover_processor(self, entity_id: str, proc_id: str) -> None:
        """Fail the dead processor's streams over to a survivor."""
        flow = self.flow
        entity = self.planner.entities[entity_id]
        survivors = sorted(
            proc
            for (owner, proc), task in flow.processors.items()
            if owner == entity_id
            and proc != proc_id
            and not task.control.crashed
        )
        stranded = entity.delegation.delegated_streams(proc_id)
        moved = entity.delegation.fail_processor(proc_id)
        self.metrics.failovers += len(moved)
        self.metrics.streams_unrecovered += len(stranded) - len(moved)
        if not survivors:
            return

        # Re-home the dead processor's fragments onto one survivor in
        # the hosting model, then re-derive the entity's tables — every
        # chain hop, fan-out and head route follows.  No await separates
        # the edit from the swap, so no task sees a half-moved entity.
        home = survivors[0]

        def rehome(proc: str) -> str:
            return home if proc == proc_id else proc

        for hosted in entity.hosted.values():
            hosted.chain_procs = [rehome(p) for p in hosted.chain_procs]
        for deployment in entity.shared.values():
            deployment.shared_proc = rehome(deployment.shared_proc)
            deployment.tap_procs = {
                qid: rehome(p) for qid, p in deployment.tap_procs.items()
            }
        entity.rewire()
        flow.rewire(entity)

        if not self.replay:
            return
        gateway = flow.gateways.get(entity_id)
        if gateway is None or gateway.control.crashed:
            return
        for stream_id in sorted(moved):
            buffered = gateway.recent_delegated(stream_id)
            if not buffered:
                continue
            channel = flow.proc_channels[entity_id][moved[stream_id]]
            delivered = await flow.transport.send(
                channel, [(None, tup) for tup in buffered]
            )
            if delivered:
                self.metrics.record_replayed(len(buffered))
