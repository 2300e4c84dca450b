"""Outside-in span recorders for the traced pass.

Nothing in ``src/`` knows it is being traced: ``install()`` replaces the
public entry points of each layer (class methods and two codec module
functions) with recorders, from this file only.  Synchronous functions
give *busy* time; awaited ones give a span whose *self* time is its
duration minus the traced calls made inside it — what remains of a
channel ``get``/``put``, a credit ``acquire`` or a clock ``pace`` is
waiting.  The current span travels in a ``ContextVar``, so nesting is
per asyncio task and a coroutine shipped into ``wait_for`` still charges
its caller.

Per-tuple functions only feed totals (calls, busy seconds); per-batch
and awaited ones are also kept as spans ``(name, start, end, track,
id, parent id)`` in memory and exported in Chrome trace-event format
when the run ends.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import time
from contextvars import ContextVar

MAX_EXPORTED_SPANS = 60_000
_clock = time.perf_counter

# frame of the span being executed: [child seconds, span id, track name]
_current: ContextVar[list | None] = ContextVar("perf_span", default=None)


class Recorder:
    """Totals, counters and spans of the functions ``install`` wrapped."""

    def __init__(self) -> None:
        self.enabled = False
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, child s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.marks: dict[str, float] = {}
        self.routers: dict[int, object] = {}
        self.shared_members: dict[int, int] = {}
        self.filter_edges: dict[tuple[int, str], tuple] = {}
        self.filter_samples: dict[str, list] = {}
        self._next_id = 0

    # -- accumulation ---------------------------------------------------
    def total(self, name: str) -> list:
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        return entry

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def reset(self) -> None:
        """Forget everything recorded so far (a new leg starts)."""
        for entry in self.totals.values():
            entry[0], entry[1], entry[2] = 0, 0.0, 0.0
        self.counters.clear()
        self.spans.clear()
        self.marks.clear()
        self.routers.clear()
        self.shared_members.clear()
        self.filter_edges.clear()
        self.filter_samples.clear()

    def snapshot(self) -> dict:
        """Plain-data copy of the totals (what a worker dumps)."""
        return {
            "pid": os.getpid(),
            "totals": {k: list(v) for k, v in self.totals.items() if v[0]},
            "counters": dict(self.counters),
            "marks": dict(self.marks),
            "partition_skew": max(
                (router.skew() for router in self.routers.values()),
                default=0.0,
            ),
            "shared_members": list(self.shared_members.values()),
            "kernel_ns_per_tuple": kernel_ns_per_tuple(self),
            "spans": self.spans[:MAX_EXPORTED_SPANS],
            "spans_dropped": max(0, len(self.spans) - MAX_EXPORTED_SPANS),
        }

    def dump(self, path: str) -> None:
        """Write the snapshot as JSON (worker exit hook)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)

    # -- wrappers -------------------------------------------------------
    def sync(self, name, fn, *, keep=False, sizes=None, kind=None):
        """Recorder for a synchronous function: calls and busy time.

        ``sizes(args, result) -> (n_in, n_out)`` adds tuple counters;
        ``kind(self_arg) -> suffix`` splits the total by receiver kind.
        """
        rec = self
        base = rec.total(name)
        labels: dict[str, tuple[str, str]] = {}  # kind -> total, counter name
        count_in, count_out = f"{name}.in", f"{name}.out"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            started = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = _clock()
                elapsed = ended - started
                parent = _current.get()
                if parent is not None:
                    parent[0] += elapsed
                base[0] += 1
                base[1] += elapsed
            split = None
            if kind is not None:
                found = kind(args[0])
                split = labels.get(found)
                if split is None:
                    split = labels[found] = (
                        f"{name}.{found}",
                        f"{name}.{found}.in",
                    )
                entry = rec.total(split[0])
                entry[0] += 1
                entry[1] += elapsed
            if sizes is not None:
                n_in, n_out = sizes(args, result)
                rec.count(count_in, n_in)
                rec.count(count_out, n_out)
                if split is not None:
                    rec.count(split[1], n_in)
            if keep:
                rec._next_id += 1
                rec.spans.append(
                    (
                        name,
                        started,
                        ended,
                        parent[2] if parent is not None else "main",
                        rec._next_id,
                        parent[1] if parent is not None else 0,
                    )
                )
            return result

        return wrapper

    def awaited(self, name, fn, *, rename=None):
        """Recorder for a coroutine function: a span with self time.

        ``rename(track, self_arg) -> name | None`` lets one entry point
        report under another name depending on the task it runs in or
        the object it is called on.
        """
        rec = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not rec.enabled:
                return await fn(*args, **kwargs)
            parent = _current.get()
            if parent is None:
                task = asyncio.current_task()
                track = task.get_name() if task is not None else "main"
            else:
                track = parent[2]
            rec._next_id += 1
            frame = [0.0, rec._next_id, track]
            token = _current.set(frame)
            started = _clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                ended = _clock()
                _current.reset(token)
                elapsed = ended - started
                if parent is not None:
                    parent[0] += elapsed
                label = name
                if rename is not None:
                    label = rename(track, args[0]) or name
                entry = rec.total(label)
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += frame[0]
                rec.spans.append(
                    (
                        label,
                        started,
                        ended,
                        track,
                        frame[1],
                        parent[1] if parent is not None else 0,
                    )
                )

        return wrapper


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _fragment_kind(rec: Recorder):
    from repro.engine.operators.aggregate import WindowAggregateOperator
    from repro.engine.operators.join import WindowJoinOperator
    from repro.engine.partition import (
        MergeStageOperator,
        PartitionStageOperator,
    )
    from repro.engine.sharing import SharedFragment, TapOperator

    by_operator = (
        (TapOperator, "tap"),
        (PartitionStageOperator, "partition"),
        (MergeStageOperator, "merge"),
        (WindowJoinOperator, "join"),
        (WindowAggregateOperator, "aggregate"),
    )
    cache: dict[int, str] = {}

    def kind(fragment) -> str:
        found = cache.get(id(fragment))
        if found is None:
            found = "select"
            if isinstance(fragment, SharedFragment):
                found = "shared"
                rec.shared_members[id(fragment)] = len(fragment.members)
            else:
                for op_type, label in by_operator:
                    if any(isinstance(op, op_type) for op in fragment.operators):
                        found = label
                        break
            cache[id(fragment)] = found
        return found

    return kind


def install() -> Recorder:
    """Wrap the layer entry points; returns the (enabled) recorder."""
    from repro.core.system import FederatedSystem
    from repro.dissemination.tree import SOURCE, DisseminationTree
    from repro.distributed import codec
    from repro.distributed.links import CreditGate, RemoteOutbox
    from repro.distributed.worker import RelayCollector
    from repro.engine.partition import PartitionRouter
    from repro.engine.plan import Fragment
    from repro.live.channels import LiveChannel
    from repro.live.entity_task import (
        LiveClock,
        LiveGateway,
        LiveProcessor,
        LiveSourceFeed,
        ResultCollector,
        TreeForwarder,
    )
    from repro.live.metrics import LiveMetrics
    from repro.live.transport import LiveTransport
    from repro.placement.delegation import DelegationScheme
    from repro.simulation.simulator import Simulator

    rec = Recorder()

    def wrap_sync(owner, attribute, name, **options):
        wrapped = rec.sync(name, getattr(owner, attribute), **options)
        setattr(owner, attribute, wrapped)

    def wrap_awaited(owner, attribute, name, **options):
        wrapped = rec.awaited(name, getattr(owner, attribute), **options)
        setattr(owner, attribute, wrapped)

    # core / simulation: planning and trace recording (set-up)
    wrap_sync(FederatedSystem, "submit", "core.submit", keep=True)
    wrap_sync(Simulator, "run", "simulation.trace_record", keep=True)

    # dissemination: §3.1 early filtering on tree edges
    def filter_sizes(args, result):
        tree, entity, batch = args
        edge = (id(tree), entity)
        if edge not in rec.filter_edges and batch:
            stream_id = batch[0].stream_id
            rec.filter_edges[edge] = (tree, entity, stream_id)
            sample = rec.filter_samples.setdefault(stream_id, [])
            if len(sample) < 2048:
                sample.extend(batch)
        return len(batch), len(result)

    wrap_sync(
        DisseminationTree,
        "filter_batch",
        "dissemination.filter_batch",
        keep=True,
        sizes=filter_sizes,
    )
    wrap_sync(DisseminationTree, "needs_tuple", "dissemination.needs_tuple")

    # placement: §4 delegate lookup per delivered tuple
    wrap_sync(DelegationScheme, "delegate_of", "placement.delegate_of")

    # engine: fragment execution, batch and per-tuple paths
    kind = _fragment_kind(rec)
    wrap_sync(
        Fragment,
        "run_batch",
        "engine.run_batch",
        keep=True,
        kind=kind,
        sizes=lambda args, result: (len(args[1]), len(result)),
    )
    wrap_sync(
        Fragment,
        "run",
        "engine.run",
        kind=kind,
        sizes=lambda args, result: (1, len(result)),
    )
    wrap_sync(Fragment, "cost_for_batch", "engine.cost_for_batch")
    wrap_sync(Fragment, "cost_for", "engine.cost_for_batch")

    def route_sizes(args, result):
        rec.routers[id(args[0])] = args[0]
        return 1, len(result)

    wrap_sync(
        PartitionRouter, "route", "engine.partition.route", sizes=route_sizes
    )

    # live: bookkeeping, forwarding, transport, channels, task loops
    wrap_sync(LiveMetrics, "record_delivery", "live.metrics.record")
    wrap_sync(LiveMetrics, "record_result", "live.metrics.record")
    wrap_awaited(TreeForwarder, "forward_batch", "live.forward_batch")
    wrap_awaited(TreeForwarder, "forward", "live.forward")
    wrap_awaited(
        TreeForwarder,
        "flush",
        "live.flush",
        rename=lambda track, forwarder: (
            "live.flush.source" if forwarder.node == SOURCE else None
        ),
    )
    wrap_awaited(LiveTransport, "send", "live.send")
    wrap_awaited(
        LiveChannel,
        "put",
        "live.channel.put",
        rename=lambda track, channel: (
            "distributed.admission_put"
            if track.startswith("dist:admission")
            else None
        ),
    )
    wrap_awaited(LiveChannel, "get", "live.channel.get")
    wrap_awaited(LiveClock, "pace", "live.pace")
    wrap_awaited(LiveSourceFeed, "run", "live.feed")
    wrap_awaited(LiveGateway, "run", "live.gateway")
    wrap_awaited(LiveProcessor, "run", "live.processor")
    wrap_awaited(ResultCollector, "run", "live.collector")
    wrap_awaited(RelayCollector, "run", "live.collector")

    # distributed: codec, credit flow, remote sends, control frames
    wrap_sync(
        codec,
        "encode_batch",
        "distributed.encode_batch",
        keep=True,
        sizes=lambda args, result: (len(args[0]), len(result)),
    )
    wrap_sync(
        codec,
        "decode_batch",
        "distributed.decode_batch",
        keep=True,
        sizes=lambda args, result: (len(args[0]), len(result)),
    )
    wrap_awaited(CreditGate, "acquire", "distributed.credit_wait")
    wrap_awaited(CreditGate, "release", "distributed.credit_release")
    wrap_awaited(RemoteOutbox, "put", "distributed.remote_put")

    encode_frame = codec.encode_frame
    control = {codec.START: "start_sent", codec.SHUTDOWN: "shutdown_sent"}

    @functools.wraps(encode_frame)
    def marking_encode_frame(frame_type, payload=b""):
        mark = control.get(frame_type)
        if mark is not None and rec.enabled:
            rec.marks.setdefault(mark, _clock())
        return encode_frame(frame_type, payload)

    codec.encode_frame = marking_encode_frame

    rec.enabled = True
    return rec


# ----------------------------------------------------------------------
# Isolated probe of the compiled edge filters
# ----------------------------------------------------------------------
def kernel_ns_per_tuple(rec: Recorder) -> float:
    """Nanoseconds per tuple of the compiled §3.1 predicates alone.

    Re-runs every edge kernel the traced leg used over tuples sampled
    from the same leg, outside the runtime: no batching, no lists, no
    event loop — the floor under ``dissemination.filter_batch``.
    """
    evaluations = 0
    elapsed = 0.0
    for tree, entity, stream_id in rec.filter_edges.values():
        match = tree.compiled_subtree_filter(entity)
        sample = rec.filter_samples.get(stream_id)
        if match is None or not sample:
            continue
        rows = [tup.values for tup in sample]
        best = None
        for __ in range(3):
            started = _clock()
            for values in rows:
                match(values)
            lap = _clock() - started
            best = lap if best is None else min(best, lap)
        evaluations += len(rows)
        elapsed += best
    return 1e9 * elapsed / evaluations if evaluations else 0.0


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
def export_chrome_trace(path: str, snapshots: list[dict]) -> None:
    """Write the spans of every process as complete ("X") events.

    ``perf_counter`` is CLOCK_MONOTONIC on Linux — system-wide — so the
    spans of the workload process and of its workers share one time
    axis.  Opens in Perfetto / chrome://tracing.
    """
    events = []
    tracks: dict[tuple[int, str], int] = {}
    origin = min(
        (span[1] for snap in snapshots for span in snap["spans"]),
        default=0.0,
    )
    dropped = 0
    for snap in snapshots:
        pid = snap["pid"]
        dropped += snap.get("spans_dropped", 0)
        for name, started, ended, track, span_id, parent_id in snap["spans"]:
            tid = tracks.get((pid, track))
            if tid is None:
                tid = tracks[(pid, track)] = len(tracks) + 1
                events.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": pid,
                        "tid": tid,
                        "args": {"name": track},
                    }
                )
            events.append(
                {
                    "ph": "X",
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "pid": pid,
                    "tid": tid,
                    "ts": round(1e6 * (started - origin), 3),
                    "dur": round(1e6 * (ended - started), 3),
                    "args": {"id": span_id, "parent": parent_id},
                }
            )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {"spans_dropped": dropped},
            },
            handle,
        )
