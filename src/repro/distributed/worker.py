"""One worker process of a distributed federation.

A worker is a thin shell around an unmodified :class:`LiveRuntime`: it
receives the planning *inputs* from the coordinator (ASSIGN), re-plans
locally — planning is deterministic, so all workers and the coordinator
agree on the federation byte for byte — and then executes only the
entities and source feeds placed on it.  The only moving part that
differs from a single-process run is the transport strategy: inboxes of
entities owned by other workers become socket-backed
:class:`~repro.distributed.links.RemoteOutbox` senders, and the result
collector relays every result batch to the coordinator.

Lifecycle (one connection to the coordinator, a mesh of peer links)::

    HELLO -> ASSIGN -> [dial peers / accept peers] -> READY -> START
          -> run dataflow, answer PROBEs with STATUS
          -> SHUTDOWN (coordinator saw global quiescence)
          -> METRICS, BYE
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import asdict

from repro.distributed import codec
from repro.distributed.links import (
    Admission,
    CreditGate,
    LinkCounters,
    PeerConnection,
    RemoteOutbox,
)
from repro.distributed.specs import (
    apply_deltas,
    catalog_from_spec,
    config_from_spec,
    query_from_spec,
    settings_from_spec,
)
from repro.live.channels import ChannelClosed, LiveChannel
from repro.live.entity_task import ResultCollector
from repro.live.runtime import LiveDataflow, LiveRuntime, TransportStrategy
from repro.live.transport import WorkTracker


class RelayCollector(ResultCollector):
    """Result sink that also streams every batch to the coordinator.

    Latency is recorded worker-side (against the worker's virtual
    clock, like a single-process run); the relayed frames give the
    coordinator the actual result tuples for the federation-level
    result set and the differential matrix.
    """

    def __init__(self, channel, tracker, metrics, clock, conn) -> None:
        super().__init__(channel, tracker, metrics, clock)
        self.conn = conn

    async def run(self) -> None:
        while True:
            try:
                batch = await self.channel.get()
            except ChannelClosed:
                break
            for query_id, tup in batch:
                self.metrics.record_result(query_id, tup, self.clock.now)
            self.conn.send(
                codec.encode_frame(codec.RESULT, codec.encode_batch(batch))
            )
            self.tracker.done(len(batch))


class DistributedStrategy(TransportStrategy):
    """Maps the planned dataflow onto this worker's slice of the mesh."""

    def __init__(self, worker: "DistributedWorker") -> None:
        self.worker = worker

    def owns_entity(self, entity_id: str) -> bool:
        return (
            self.worker.entity_workers[entity_id] == self.worker.worker_id
        )

    def owns_stream(self, stream_id: str) -> bool:
        return (
            self.worker.feed_workers.get(stream_id)
            == self.worker.worker_id
        )

    def inbox_for(
        self,
        entity_id: str,
        *,
        capacity: int,
        latency: float,
        tracker: WorkTracker,
    ) -> LiveChannel:
        worker = self.worker
        if self.owns_entity(entity_id):
            inbox = super().inbox_for(
                entity_id,
                capacity=capacity,
                latency=latency,
                tracker=tracker,
            )
            worker.local_inboxes[entity_id] = inbox
            return inbox
        peer = worker.entity_workers[entity_id]
        gate = CreditGate(capacity)
        worker.gates[entity_id] = gate
        return RemoteOutbox(
            entity_id,
            worker.peer_conns[peer],
            gate,
            tracker=tracker,
            counters=worker.counters,
        )

    def result_consumer(self, flow: LiveDataflow) -> ResultCollector:
        runtime = self.runtime
        return RelayCollector(
            flow.result_channel,
            flow.tracker,
            runtime.metrics,
            flow.clock,
            self.worker.coord,
        )

    async def wait_drained(self, flow: LiveDataflow) -> None:
        # Local feeds are done once we get here; global quiescence is
        # the coordinator's call — the local tracker cannot see batches
        # still crossing sockets between other workers.
        self.worker.feeds_done = True
        await self.worker.shutdown_event.wait()


class DistributedWorker:
    """The ``python -m repro serve`` process."""

    def __init__(
        self, coordinator_host: str, coordinator_port: int
    ) -> None:
        self.coordinator_host = coordinator_host
        self.coordinator_port = coordinator_port
        self.worker_id: int | None = None
        self.coord: PeerConnection | None = None
        self.peer_conns: dict[int, PeerConnection] = {}
        self.peer_counts: dict[int, int] = {}
        self.admissions: dict[int, Admission] = {}
        self.local_inboxes: dict[str, LiveChannel] = {}
        self.gates: dict[str, CreditGate] = {}
        self.counters = LinkCounters()
        self.entity_workers: dict[str, int] = {}
        self.feed_workers: dict[str, int] = {}
        self.runtime: LiveRuntime | None = None
        self.feeds_done = False
        self.delta_frames: list[dict] = []
        self.start_event = asyncio.Event()
        self.shutdown_event = asyncio.Event()
        self._mesh_event = asyncio.Event()
        self._deltas_event = asyncio.Event()
        self._deltas_expected: int | None = None
        # None until ASSIGN names the peer set: a peer may dial in
        # before our own ASSIGN is processed, and an "empty set is
        # satisfied" check would declare the mesh complete prematurely.
        self._expected_peers: set[int] | None = None
        self._reader_tasks: list[asyncio.Task] = []
        self._lifecycle_task: asyncio.Task | None = None
        self._server: asyncio.Server | None = None

    # ------------------------------------------------------------------
    async def serve(self) -> int:
        """Connect, participate in one federation run, exit."""
        self._server = await asyncio.start_server(
            self._accept_peer, "127.0.0.1", 0
        )
        port = self._server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection(
            self.coordinator_host, self.coordinator_port
        )
        self.coord = PeerConnection(reader, writer, label="coordinator")
        self.coord.send_json(
            codec.HELLO, {"port": port, "pid": os.getpid()}
        )
        try:
            await self._control_loop()
            if self._lifecycle_task is not None:
                await self._lifecycle_task
        finally:
            await self._teardown()
        return 0

    async def _control_loop(self) -> None:
        """Dispatch coordinator frames until the run is over."""
        try:
            async for frame_type, payload in self.coord.frames():
                if frame_type == codec.ASSIGN:
                    spec = codec.decode_json(payload)
                    self._lifecycle_task = asyncio.create_task(
                        self._lifecycle(spec), name="dist:lifecycle"
                    )
                elif frame_type == codec.ADMIT:
                    self._buffer_delta(
                        {
                            "action": "admit",
                            "query": codec.decode_json(payload),
                        }
                    )
                elif frame_type == codec.RETIRE:
                    self._buffer_delta(
                        {
                            "action": "retire",
                            "query_id": codec.decode_json(payload)[
                                "query_id"
                            ],
                        }
                    )
                elif frame_type == codec.PROBE:
                    probe = codec.decode_json(payload)
                    self.coord.send_json(
                        codec.STATUS, self._status(probe["round"])
                    )
                elif frame_type == codec.START:
                    self.start_event.set()
                elif frame_type == codec.SHUTDOWN:
                    self.shutdown_event.set()
                elif frame_type == codec.BYE:
                    return
        except ConnectionError:
            return

    def _buffer_delta(self, delta: dict) -> None:
        """Collect one ADMIT/RETIRE frame; ASSIGN announced how many."""
        self.delta_frames.append(delta)
        if (
            self._deltas_expected is not None
            and len(self.delta_frames) >= self._deltas_expected
        ):
            self._deltas_event.set()

    def _status(self, probe_round: int) -> dict:
        flow = self.runtime.dataflow if self.runtime is not None else None
        return {
            "round": probe_round,
            "worker_id": self.worker_id,
            "feeds_done": self.feeds_done,
            "in_flight": flow.tracker.in_flight if flow is not None else 0,
            "sent": self.counters.sent,
            "received": self.counters.received,
        }

    # ------------------------------------------------------------------
    async def _lifecycle(self, spec: dict) -> None:
        try:
            await self._run_lifecycle(spec)
        except Exception:
            # A dead lifecycle must kill the process: closing the
            # coordinator link ends the control loop, serve() re-raises,
            # and the coordinator reports an early worker exit instead
            # of timing out against a silent zombie.
            if self.coord is not None:
                await self.coord.close()
            raise

    async def _run_lifecycle(self, spec: dict) -> None:
        self.worker_id = spec["worker_id"]
        self.entity_workers = dict(spec["entity_workers"])
        self.feed_workers = dict(spec["feed_workers"])
        peers = [p for p in spec["peers"] if p["id"] != self.worker_id]
        self._expected_peers = {p["id"] for p in peers}
        self._check_mesh()

        # Lower ids dial higher ids: every pair gets exactly one link.
        for peer in sorted(peers, key=lambda p: p["id"]):
            if peer["id"] > self.worker_id:
                reader, writer = await asyncio.open_connection(
                    peer["host"], peer["port"]
                )
                conn = PeerConnection(
                    reader, writer, label=f"peer/{peer['id']}"
                )
                conn.peer_id = peer["id"]
                conn.send_json(
                    codec.PEER_HELLO, {"worker_id": self.worker_id}
                )
                self._register_peer(conn)
                task = asyncio.create_task(
                    self._peer_loop(conn), name=f"dist:peer/{peer['id']}"
                )
                self._reader_tasks.append(task)
        await self._mesh_event.wait()

        # Lifecycle deltas ride as ADMIT/RETIRE frames; ASSIGN announces
        # the count so re-planning waits until the full, ordered
        # sequence has arrived.
        self._deltas_expected = spec.get("delta_count", 0)
        if len(self.delta_frames) >= self._deltas_expected:
            self._deltas_event.set()
        await self._deltas_event.wait()
        deltas = self.delta_frames[: self._deltas_expected]

        # Re-plan locally from the shipped inputs (deterministic).
        catalog = catalog_from_spec(spec["catalog"])
        config = config_from_spec(spec["config"])
        settings = settings_from_spec(spec["settings"])
        queries = [query_from_spec(q) for q in spec["queries"]]
        self.runtime = LiveRuntime(
            catalog, config, settings, strategy=DistributedStrategy(self)
        )
        self.runtime.submit(queries)
        apply_deltas(self.runtime.planner, deltas)
        flow = self.runtime.prepare(spec["duration"])

        for peer_id in sorted(self.peer_conns):
            conn = self.peer_conns[peer_id]
            self.admissions[peer_id] = Admission(
                conn,
                self.local_inboxes,
                flow.clock,
                flow.tracker,
                self.counters,
            )

        self.coord.send_json(codec.READY, {"worker_id": self.worker_id})
        await self.start_event.wait()
        report = await self.runtime.execute()

        undrained = sum(
            adm.pending for adm in self.admissions.values()
        ) + sum(conn.pending_frames for conn in self.peer_conns.values())
        for peer_id in sorted(self.admissions):
            await self.admissions[peer_id].close()
        report_dict = asdict(report)
        report_dict.pop("recovery", None)
        report_dict.pop("adaptation", None)
        report_dict.pop("control", None)
        self.coord.send_json(
            codec.METRICS,
            {
                "worker_id": self.worker_id,
                "report": report_dict,
                "undrained_frames": undrained,
                "sent": self.counters.sent,
                "received": self.counters.received,
                "excess_credit_returns": sum(
                    gate.excess_credit_returns
                    for gate in self.gates.values()
                ),
                "peer_counts": {
                    str(peer): count
                    for peer, count in sorted(self.peer_counts.items())
                },
            },
        )
        self.coord.send_json(codec.BYE, {"worker_id": self.worker_id})

    # ------------------------------------------------------------------
    # Peer mesh
    # ------------------------------------------------------------------
    async def _accept_peer(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = PeerConnection(reader, writer, label="peer/?")
        # The accepting side learns the peer's id from its first frame
        # (PEER_HELLO, handled inside the same reader loop so frames
        # following it in the same chunk are not lost).
        task = asyncio.create_task(
            self._peer_loop(conn), name="dist:peer-accept"
        )
        self._reader_tasks.append(task)

    def _register_peer(self, conn: PeerConnection) -> None:
        peer_id = conn.peer_id
        self.peer_counts[peer_id] = self.peer_counts.get(peer_id, 0) + 1
        if peer_id not in self.peer_conns:
            self.peer_conns[peer_id] = conn
        self._check_mesh()

    def _check_mesh(self) -> None:
        if (
            self._expected_peers is not None
            and self._expected_peers <= set(self.peer_conns)
        ):
            self._mesh_event.set()

    async def _peer_loop(self, conn: PeerConnection) -> None:
        """Dispatch data-plane frames from one peer until EOF."""
        try:
            async for frame_type, payload in conn.frames():
                if frame_type == codec.PEER_HELLO:
                    if conn.peer_id is None:
                        hello = codec.decode_json(payload)
                        conn.peer_id = hello["worker_id"]
                        conn.label = f"peer/{conn.peer_id}"
                        self._register_peer(conn)
                elif frame_type == codec.BATCH:
                    self._dispatch_batch(conn, payload)
                elif frame_type == codec.CREDIT:
                    tag, count = codec.decode_credit(payload)
                    await self.gates[tag].release(count)
        except ConnectionError:
            return

    def _dispatch_batch(
        self, conn: PeerConnection, payload: "bytes | memoryview"
    ) -> None:
        admission = self.admissions[conn.peer_id]
        items = codec.decode_batch(payload)
        # One frame normally carries a single destination entity, but
        # the payload allows mixed tags: admit per maximal run.
        start, n = 0, len(items)
        while start < n:
            tag = items[start][0]
            end = start + 1
            while end < n and items[end][0] == tag:
                end += 1
            admission.offer(tag, [tup for __, tup in items[start:end]])
            start = end

    # ------------------------------------------------------------------
    async def _teardown(self) -> None:
        if self.coord is not None:
            await self.coord.close()
        for peer_id in sorted(self.peer_conns):
            await self.peer_conns[peer_id].close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._reader_tasks:
            task.cancel()
        await asyncio.gather(*self._reader_tasks, return_exceptions=True)


def serve(coordinator: str) -> int:
    """Blocking entry point for ``python -m repro serve``."""
    host, __, port = coordinator.rpartition(":")
    if not port.isdigit():
        raise ValueError(
            f"invalid coordinator address {coordinator!r} (want HOST:PORT)"
        )
    worker = DistributedWorker(host or "127.0.0.1", int(port))
    return asyncio.run(worker.serve())
