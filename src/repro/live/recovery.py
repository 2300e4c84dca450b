"""Failure detection and failover for the live federation runtime.

The paper repairs a failure where it happens: §3.2.1's coordinator
clusters heal around a silent member, §3.1's dissemination trees
re-parent a dead relay's subtrees, and §4's central administration hands
a dead processor's streams and work to a survivor.  All of that is one
planner edit, :meth:`FederatedSystem.edit(failed=[node])
<repro.core.system.FederatedSystem.edit>`, which the simulator
interprets too.  This module only detects the failure and loads what the
edit derived:

* :class:`HeartbeatMonitor` — one centralized heartbeat loop over the
  federation's gateways and processors.  Each interval every live node
  "beats"; a node silent for ``detection_multiplier`` intervals is
  declared dead exactly once and handed to the failure callback.
* :class:`RecoveryManager` — runs the edit, loads each touched entity's
  re-derived wiring into the running tasks
  (:meth:`~repro.live.runtime.LiveDataflow.rewire`), and after a
  processor failure replays the gateway's buffered delegate tuples to
  each new delegate (at-least-once: replay may duplicate).  An entity's
  last processor has no survivor to fail over to: its streams are
  undelegated and counted as unrecovered.

Everything iterates in sorted order and takes time only from the
caller-supplied ``now`` callable, so chaos runs stay deterministic.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

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
        planner: The run's :class:`~repro.core.system.FederatedSystem`;
            its :meth:`~repro.core.system.FederatedSystem.edit` does the
            repair.
        flow: The live dataflow being repaired.
        metrics: Recovery counters.
        now: Virtual-time source used to stamp completed recoveries.
    """

    def __init__(
        self,
        planner,
        flow: LiveDataflow,
        metrics: RecoveryReport,
        *,
        now: Callable[[], float],
    ) -> None:
        self.planner = planner
        self.flow = flow
        self.metrics = metrics
        self.now = now

    # ------------------------------------------------------------------
    async def on_failure(self, node_id: str) -> None:
        """Repair around one detected crash (entity or processor): one
        planner edit, the touched entities' tables loaded, and the
        gateway's buffered intake replayed to each new delegate."""
        flow = self.flow
        if node_id in flow.gateways:
            entity_id = node_id
        else:
            entity_id = flow.entity_of_processor(node_id)
        entity = self.planner.entities.get(entity_id)
        if entity is None:
            pass  # the node's entity has failed already
        elif node_id == entity_id:
            self._count_entity_repair(entity_id)
            self._edit(node_id)
        elif len(entity.processors) == 1:
            # the last processor: no survivor to fail over to
            stranded = entity.delegation.delegated_streams(node_id)
            entity.delegation.fail_processor(node_id)
            self.metrics.streams_unrecovered += len(stranded)
        else:
            stranded = entity.delegation.delegated_streams(node_id)
            self._edit(node_id)
            self.metrics.failovers += len(stranded)
            await self._replay(entity, stranded)
        self.metrics.record_recovery(node_id, self.now())

    def _edit(self, node_id: str) -> None:
        """The planner's failure edit, loaded into the running tasks.  No
        await separates the two, so no task sees a half-repaired plan."""
        planner = self.planner
        for entity_id in planner.edit(failed=[node_id]):
            self.flow.rewire(planner.entities[entity_id])

    def _count_entity_repair(self, entity_id: str) -> None:
        """Count what the edit repairs around a dead entity: its children
        in every tree, and its coordinator-tree membership."""
        for stream_id in sorted(self.flow.trees):
            tree = self.flow.trees[stream_id]
            if tree.contains(entity_id):
                self.metrics.reparented_children += len(
                    tree.children_of(entity_id)
                )
        if entity_id in self.planner.portal.tree.members:
            self.metrics.coordinator_repairs += 1

    async def _replay(self, entity, streams: list[str]) -> None:
        """Re-feed the gateway's buffered intake of each failed-over
        stream to its new delegate (at-least-once: may duplicate)."""
        flow = self.flow
        gateway = flow.gateways[entity.entity_id]
        if gateway.control.crashed:
            return
        for stream_id in streams:
            buffered = gateway.recent_delegated(stream_id)
            if not buffered:
                continue
            delegate = entity.delegation.delegate_of(stream_id)
            channel = flow.proc_channels[entity.entity_id][delegate]
            delivered = await flow.transport.send(
                channel, [(None, tup) for tup in buffered]
            )
            if delivered:
                self.metrics.record_replayed(len(buffered))
