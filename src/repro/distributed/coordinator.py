"""The coordinator: launches workers, drives the run, merges reports.

The coordinator owns no entities.  It plans the federation once (the
same deterministic planning every worker repeats locally), derives the
entity->process placement from the §3.2.2 allocation loads, and then
runs a small control protocol over one TCP connection per worker:
handshake and assignment, a probe loop for federation-wide termination
detection, and final metrics collection.  Result tuples stream in as
binary RESULT frames during the run, so the coordinator ends up with
the exact federation-level result set — what the sim-vs-live-vs-
distributed parity suite compares.

Termination detection is the classic counting scheme: the federation
is quiescent when every worker's feeds have finished, no worker has
local work in flight, the global count of tuples sent across sockets
equals the count admitted from sockets, and those totals are stable
across consecutive probe rounds (a tuple can never be in flight
unseen: senders count on send, receivers only after admission).
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time

from repro.core.system import FederatedSystem, SystemConfig
from repro.distributed import codec
from repro.distributed.audit import audit_distributed_run
from repro.distributed.links import PeerConnection
from repro.distributed.placement import (
    cross_worker_links,
    entity_loads,
    place_entities,
    place_feeds,
)
from repro.distributed.specs import (
    apply_deltas,
    assignment_to_spec,
    delta_to_spec,
)
from repro.live.metrics import LiveReport
from repro.live.runtime import LiveSettings
from repro.query.spec import QuerySpec
from repro.streams.catalog import StreamCatalog
from repro.streams.tuples import StreamTuple

HANDSHAKE_TIMEOUT = 120.0
SHUTDOWN_TIMEOUT = 120.0


def merge_reports(
    reports: list[dict], *, duration: float, wall_seconds: float
) -> LiveReport:
    """Aggregate per-worker :class:`LiveReport` dicts into one.

    Counters and per-entity maps are disjoint across workers (each
    entity runs in exactly one process) so sums and dict-unions are
    exact; the federation p95 latency is approximated by the worst
    worker's p95 (exact merging would need the raw samples).
    """
    merged: dict = {"duration": duration, "wall_seconds": wall_seconds}
    int_fields = [
        "tuples_ingested",
        "tuples_delivered",
        "results",
        "negative_latency_samples",
        "filtered_edges",
        "forwarded_edges",
        "batches_sent",
        "tuples_sent",
        "retries",
        "dropped_batches",
        "dropped_tuples",
        "blocked_puts",
    ]
    for field in int_fields:
        merged[field] = sum(r[field] for r in reports)
    dict_fields = [
        "entity_tuples",
        "entity_queue_depth",
        "entity_queue_high_water",
        "entity_cpu_seconds",
        "query_cpu_seconds",
        "entity_query_count",
        "results_by_query",
    ]
    for field in dict_fields:
        combined: dict = {}
        for r in reports:
            combined.update(r[field])
        merged[field] = combined
    total_results = merged["results"]
    merged["mean_result_latency"] = (
        sum(r["mean_result_latency"] * r["results"] for r in reports)
        / total_results
        if total_results
        else 0.0
    )
    merged["p95_result_latency"] = max(
        (r["p95_result_latency"] for r in reports), default=0.0
    )
    return LiveReport(**merged)


class DistributedCoordinator:
    """Run one planned federation across ``workers`` OS processes."""

    def __init__(
        self,
        catalog: StreamCatalog,
        config: SystemConfig,
        queries: list[QuerySpec],
        settings: LiveSettings | None = None,
        *,
        workers: int = 2,
        duration: float | None = None,
        probe_interval: float = 0.02,
        python: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.catalog = catalog
        self.config = config
        self.queries = queries
        self.settings = settings or LiveSettings()
        self.workers = workers
        self.duration = (
            duration if duration is not None else self.settings.duration
        )
        self.probe_interval = probe_interval
        self.python = python or sys.executable
        self.deltas: list[dict] = []
        # Filled during/after the run.
        self.entity_workers: dict[str, int] = {}
        self.feed_workers: dict[str, int] = {}
        self.required_links: set[tuple[int, int]] = set()
        self.results: dict[str, list[StreamTuple]] = {}
        self.worker_metrics: dict[int, dict] = {}
        self.worker_reports: dict[int, dict] = {}
        self.violations: list = []
        self.report: LiveReport | None = None
        self.probe_rounds = 0
        # Connection state guarded by the condition below.
        self._cond = asyncio.Condition()
        self._conns: list[PeerConnection] = []
        self._hello: dict[int, dict] = {}
        self._ready: set[int] = set()
        self._status: dict[int, dict] = {}
        self._byes: set[int] = set()
        self._reader_tasks: list[asyncio.Task] = []
        self._ran = False

    # ------------------------------------------------------------------
    def admit_query(self, query: QuerySpec) -> None:
        """Register one dynamic arrival before the run launches.

        The delta ships to every worker as an ADMIT frame after ASSIGN
        and is applied after the base workload, so all processes
        re-derive the identical plan.
        """
        if self._ran:
            raise RuntimeError("lifecycle deltas must precede run()")
        self.deltas.append(delta_to_spec("admit", query))

    def retire_query(self, query_id: str) -> None:
        """Register one dynamic departure before the run launches."""
        if self._ran:
            raise RuntimeError("lifecycle deltas must precede run()")
        self.deltas.append(delta_to_spec("retire", query_id))

    # ------------------------------------------------------------------
    def run(self) -> LiveReport:
        """Blocking façade: spawn, execute, aggregate, audit."""
        if self._ran:
            raise RuntimeError(
                "a DistributedCoordinator instance is single-use"
            )
        self._ran = True
        return asyncio.run(self._run())

    # ------------------------------------------------------------------
    async def _run(self) -> LiveReport:
        planner = FederatedSystem(self.catalog, self.config)
        planner.submit(self.queries)
        # The placement must reflect the *effective* query set — the
        # same deltas every worker replays after its base submit.
        apply_deltas(planner, self.deltas)
        self.entity_workers = place_entities(
            entity_loads(planner), self.workers
        )
        self.feed_workers = place_feeds(
            list(planner.sources), self.workers
        )
        self.required_links = cross_worker_links(
            planner, self.entity_workers, self.feed_workers
        )

        server = await asyncio.start_server(
            self._accept_worker, "127.0.0.1", 0
        )
        port = server.sockets[0].getsockname()[1]
        procs = self._spawn_workers(port)
        try:
            await self._wait(
                lambda: len(self._hello) == self.workers,
                HANDSHAKE_TIMEOUT,
                "worker HELLO handshake",
                procs,
            )
            peers = [
                {
                    "id": worker_id,
                    "host": "127.0.0.1",
                    "port": self._hello[worker_id]["port"],
                }
                for worker_id in sorted(self._hello)
            ]
            for worker_id, conn in enumerate(self._conns):
                conn.send_json(
                    codec.ASSIGN,
                    assignment_to_spec(
                        worker_id=worker_id,
                        peers=peers,
                        catalog=self.catalog,
                        config=self.config,
                        settings=self.settings,
                        queries=self.queries,
                        duration=self.duration,
                        entity_workers=self.entity_workers,
                        feed_workers=self.feed_workers,
                        delta_count=len(self.deltas),
                    ),
                )
                for delta in self.deltas:
                    if delta["action"] == "admit":
                        conn.send_json(codec.ADMIT, delta["query"])
                    else:
                        conn.send_json(
                            codec.RETIRE, {"query_id": delta["query_id"]}
                        )
            await self._wait(
                lambda: len(self._ready) == self.workers,
                HANDSHAKE_TIMEOUT,
                "worker READY",
                procs,
            )
            wall_started = time.perf_counter()
            for conn in self._conns:
                conn.send(codec.encode_frame(codec.START))
            await self._probe_until_quiescent(procs)
            for conn in self._conns:
                conn.send(codec.encode_frame(codec.SHUTDOWN))
            await self._wait(
                lambda: len(self._byes) == self.workers,
                SHUTDOWN_TIMEOUT,
                "worker BYE",
                procs,
            )
            wall_seconds = time.perf_counter() - wall_started
            for conn in self._conns:
                await conn.close()
            for proc in procs:
                proc.wait(timeout=30)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
            server.close()
            await server.wait_closed()
            for task in self._reader_tasks:
                task.cancel()
            await asyncio.gather(*self._reader_tasks, return_exceptions=True)

        self.report = merge_reports(
            [
                self.worker_reports[worker_id]
                for worker_id in sorted(self.worker_reports)
            ],
            duration=self.duration,
            wall_seconds=wall_seconds,
        )
        self.violations = audit_distributed_run(
            required_links=self.required_links,
            worker_metrics=self.worker_metrics,
        )
        return self.report

    # ------------------------------------------------------------------
    def _spawn_workers(self, port: int) -> list[subprocess.Popen]:
        env = dict(os.environ)
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root
            if not existing
            else package_root + os.pathsep + existing
        )
        return [
            subprocess.Popen(
                [
                    self.python,
                    "-m",
                    "repro",
                    "serve",
                    "--coordinator",
                    f"127.0.0.1:{port}",
                ],
                env=env,
            )
            for _ in range(self.workers)
        ]

    # ------------------------------------------------------------------
    async def _accept_worker(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        async with self._cond:
            worker_id = len(self._conns)
            conn = PeerConnection(
                reader, writer, label=f"worker/{worker_id}"
            )
            conn.peer_id = worker_id
            self._conns.append(conn)
        task = asyncio.create_task(
            self._worker_loop(conn), name=f"dist:coord-worker/{worker_id}"
        )
        self._reader_tasks.append(task)

    async def _worker_loop(self, conn: PeerConnection) -> None:
        worker_id = conn.peer_id
        try:
            async for frame_type, payload in conn.frames():
                if frame_type == codec.RESULT:
                    for query_id, tup in codec.decode_batch(payload):
                        self.results.setdefault(query_id, []).append(tup)
                    continue
                async with self._cond:
                    if frame_type == codec.HELLO:
                        self._hello[worker_id] = codec.decode_json(payload)
                    elif frame_type == codec.READY:
                        self._ready.add(worker_id)
                    elif frame_type == codec.STATUS:
                        self._status[worker_id] = codec.decode_json(payload)
                    elif frame_type == codec.METRICS:
                        metrics = codec.decode_json(payload)
                        self.worker_metrics[worker_id] = metrics
                        self.worker_reports[worker_id] = metrics["report"]
                    elif frame_type == codec.BYE:
                        self._byes.add(worker_id)
                    self._cond.notify_all()
        except ConnectionError:
            return

    # ------------------------------------------------------------------
    async def _wait(
        self,
        predicate,
        timeout: float,
        what: str,
        procs: list[subprocess.Popen],
    ) -> None:
        async def _block() -> None:
            async with self._cond:
                await self._cond.wait_for(predicate)

        try:
            await asyncio.wait_for(_block(), timeout)
        except asyncio.TimeoutError:
            dead = [
                index
                for index, proc in enumerate(procs)
                if proc.poll() is not None
            ]
            raise RuntimeError(
                f"timed out waiting for {what}"
                + (f"; worker processes {dead} exited early" if dead else "")
            ) from None

    async def _probe_until_quiescent(
        self, procs: list[subprocess.Popen]
    ) -> None:
        """Probe workers until the whole federation has drained."""
        stable_rounds = 0
        previous_totals: tuple[int, int] | None = None
        probe_round = 0
        while stable_rounds < 2:
            probe_round += 1
            self.probe_rounds = probe_round
            for conn in self._conns:
                conn.send_json(codec.PROBE, {"round": probe_round})
            await self._wait(
                lambda: all(
                    self._status.get(worker_id, {}).get("round") == probe_round
                    for worker_id in range(self.workers)
                ),
                HANDSHAKE_TIMEOUT,
                f"STATUS round {probe_round}",
                procs,
            )
            statuses = [
                self._status[worker_id] for worker_id in range(self.workers)
            ]
            sent = sum(s["sent"] for s in statuses)
            received = sum(s["received"] for s in statuses)
            quiescent = (
                all(s["feeds_done"] for s in statuses)
                and all(s["in_flight"] == 0 for s in statuses)
                and sent == received
                and (sent, received) == previous_totals
            )
            previous_totals = (sent, received)
            stable_rounds = stable_rounds + 1 if quiescent else 0
            if stable_rounds < 2:
                await asyncio.sleep(self.probe_interval)
