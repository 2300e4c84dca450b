"""Intra-operator parallelism: partitioned operator fragments.

Allocation and placement are query-granularity, as in the paper
(§3.2.2/§4.1), so one hot window join or grouped aggregate caps at a
single processor.  This module splits such a *stage* across N parallel
fragment instances — the split/merge scheme of *Parallelizing Windowed
Stream Joins in a Shared-Nothing Cluster* mapped onto our fragments:

* :class:`PartitionSpec` — a hash or key-range partition function over
  the stage's key attribute (join key, or the aggregate's group), plus
  explicit per-key ``overrides`` that skew rebalancing installs;
* :class:`PartitionRouter` — runs where the pre-stage fragment ends and
  routes each stage input to exactly one partition, emitting an in-band
  *schedule* control stream towards the merge so the global event order
  survives the fan-out;
* :class:`PartitionStageOperator` — one per partition, wrapping a fresh
  clone of the stateful operator; it envelopes every output with its
  partition's constant ``<stage>.__p<i>__/`` prefix and closes each
  event with an *ack* marker;
* :class:`MergeStageOperator` — collects each partition's events and
  releases them in the router's global ticket order, renumbering stage
  outputs with one global sequence counter, so the merged stream is
  bit-identical to the single-fragment operator's;
* :class:`PartitionedOperator` — the synchronous in-process composition
  of all of the above, the drop-in the equivalence property suite runs
  against the plain operator.

The protocol is deliberately in-band: every schedule, flush, and ack
marker is an ordinary :class:`~repro.streams.tuples.StreamTuple`, so
the same wiring works over simulator network sends, live asyncio
channels, and the distributed wire codec.  It relies on FIFO links, as
the split/merge scheme does: every sender's stream — the router's
schedule, the router's events for one partition, one partition's
outputs and acks — arrives in the order it was sent.  The simulator's
network, the live channels and TCP all keep that order, so nothing is
numbered: a partition runs its events as they come, and the merge reads
each partition's stream as a run of events closed by acks.

Tumbling aggregates additionally need *punctuation*: when the router's
watermark crosses a window boundary it broadcasts one flush control to
every partition (a single global ticket) before routing the boundary
tuple, so all clones close the window together and the merge can
interleave the per-partition flush outputs in global group order.
"""

from __future__ import annotations

import bisect
import heapq
import math
import re
from collections import deque
from dataclasses import dataclass, field, replace

from repro.engine.operators.aggregate import WindowAggregateOperator
from repro.engine.operators.base import Operator
from repro.engine.operators.join import WindowJoinOperator
from repro.engine.plan import Fragment, QueryPlan
from repro.streams.tuples import StreamTuple

HASH = "hash"
RANGE = "range"
_SCHEMES = (HASH, RANGE)

JOIN_STAGE = "join"
AGGREGATE_STAGE = "aggregate"

# Serialised size charged for schedule/flush/ack control tuples.
CONTROL_SIZE = 16.0


def sched_stream(stage: str) -> str:
    """Router → merge schedule control stream for stage ``stage``."""
    return f"{stage}.__sched__"


def flush_stream(stage: str) -> str:
    """Router → partitions window-flush broadcast stream."""
    return f"{stage}.__flush__"


def ack_stream(stage: str, index: int) -> str:
    """Partition ``index`` → merge end-of-event marker stream."""
    return f"{stage}.__ack__{index}"


@dataclass(frozen=True)
class PartitionSpec:
    """A total partition function over the stage's key space.

    Attributes:
        key: The partitioning attribute (join key / aggregate group).
        parts: Number of parallel partitions (>= 1).
        scheme: ``hash`` (value-stable numeric hash) or ``range``
            (``boundaries`` split the key space into ``parts`` buckets).
        boundaries: ``parts - 1`` ascending split points (range scheme).
        overrides: Explicit ``(key value, partition)`` reassignments —
            the mechanism skew rebalancing uses to move hot keys without
            touching the base function, so coverage stays total.
    """

    key: str
    parts: int
    scheme: str = HASH
    boundaries: tuple[float, ...] | None = None
    overrides: tuple[tuple[float, int], ...] = ()

    def __post_init__(self) -> None:
        if self.parts < 1:
            raise ValueError("parts must be >= 1")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}")
        if self.scheme == RANGE:
            if self.boundaries is None or len(self.boundaries) != self.parts - 1:
                raise ValueError("range scheme needs parts - 1 boundaries")
            if list(self.boundaries) != sorted(self.boundaries):
                raise ValueError("range boundaries must be ascending")
        for key_value, part in self.overrides:
            if not 0 <= part < self.parts:
                raise ValueError(
                    f"override {key_value!r} -> {part} outside 0..{self.parts - 1}"
                )
        object.__setattr__(self, "_override_map", dict(self.overrides))

    def partition_of(self, value: float) -> int:
        """The partition owning ``value`` — total over the key space.

        Python's numeric ``hash`` is value-stable (independent of
        ``PYTHONHASHSEED``), so hash partitioning is deterministic
        across processes — a requirement of the distributed runtime,
        where every worker re-derives the same routing.
        """
        override = self._override_map.get(value)  # type: ignore[attr-defined]
        if override is not None:
            return override
        if value != value:  # NaN hashes by identity since 3.10
            return 0
        if self.scheme == HASH:
            return hash(value) % self.parts
        return bisect.bisect_right(self.boundaries, value)

    def rebalanced(self, key_counts: dict[float, int]) -> "PartitionSpec":
        """A new spec moving hot keys off overloaded partitions.

        Greedy: repeatedly take the most-loaded partition's hottest
        movable key and override it onto the least-loaded partition,
        while the move strictly improves the makespan.  Only overrides
        change, so the function stays total over the key space.
        """
        if self.parts < 2 or not key_counts:
            return self
        loads = [0.0] * self.parts
        keys_at: list[list[tuple[int, float]]] = [[] for _ in range(self.parts)]
        for key_value, count in sorted(key_counts.items()):
            part = self.partition_of(key_value)
            loads[part] += count
            keys_at[part].append((count, key_value))
        for bucket in keys_at:
            bucket.sort(key=lambda kc: (-kc[0], kc[1]))
        overrides = dict(self._override_map)  # type: ignore[attr-defined]
        for __ in range(len(key_counts)):
            src = max(range(self.parts), key=lambda p: (loads[p], -p))
            dst = min(range(self.parts), key=lambda p: (loads[p], p))
            gap = loads[src] - loads[dst]
            move = next(
                (
                    (count, key_value)
                    for count, key_value in keys_at[src]
                    if 0 < count < gap
                ),
                None,
            )
            if move is None:
                break
            count, key_value = move
            keys_at[src].remove(move)
            keys_at[dst].append(move)
            loads[src] -= count
            loads[dst] += count
            overrides[key_value] = dst
        # repro: allow[PERF001] control path: a frozen config object, once per rebalance
        return replace(
            self, overrides=tuple(sorted(overrides.items()))
        )


class PartitionRouter:
    """Splits one stage's input across partitions, order preserved.

    The router mirrors the wrapped operator's own routing-relevant
    logic exactly — which tuples the stage consumes vs passes through,
    and (for aggregates) when the watermark crosses a window boundary —
    so the partition clones together observe precisely the event stream
    the single operator would.

    :meth:`route` turns one input tuple into a list of ``(destination,
    tuple)`` sends: integer destinations address partitions (the input
    tuple itself, or a flush control), and :data:`MERGE` addresses the
    merge stage (schedule controls naming the owning partition, one
    per global ticket).
    """

    MERGE = "merge"

    def __init__(
        self,
        stage: str,
        spec: PartitionSpec,
        *,
        kind: str,
        key_attribute: str,
        streams: tuple[str, ...] = (),
        group_by: str | None = None,
        window: float | None = None,
    ) -> None:
        if kind not in (JOIN_STAGE, AGGREGATE_STAGE):
            raise ValueError(f"unknown stage kind {kind!r}")
        self.stage = stage
        self.spec = spec
        self.kind = kind
        self.key_attribute = key_attribute
        self.streams = streams
        self.group_by = group_by
        self.window = window
        self._flush = flush_stream(stage)
        # one schedule control per owner: a partition, or -1 for a flush
        sched = sched_stream(stage)
        self._sched = {
            part: (
                self.MERGE,
                StreamTuple(
                    sched, 0, 0.0, {"partition": float(part)}, CONTROL_SIZE
                ),
            )
            for part in range(-1, spec.parts)
        }
        self._current_window: int | None = None
        self.partition_counts = [0] * spec.parts
        self.key_counts: dict[float, int] = {}

    @classmethod
    def for_operator(
        cls, op: Operator, spec: PartitionSpec
    ) -> "PartitionRouter":
        """Build the router matching a join or aggregate stage."""
        if isinstance(op, WindowJoinOperator):
            return cls(
                op.name,
                spec,
                kind=JOIN_STAGE,
                key_attribute=op.attribute,
                streams=(op.left_stream, op.right_stream),
            )
        if isinstance(op, WindowAggregateOperator):
            return cls(
                op.name,
                spec,
                kind=AGGREGATE_STAGE,
                key_attribute=op.attribute,
                group_by=op.group_by,
                window=op.window,
            )
        raise TypeError(f"{op!r} is not a partitionable stage")

    # ------------------------------------------------------------------
    def route(self, tup: StreamTuple) -> list[tuple[object, StreamTuple]]:
        """The sends for one stage input: controls plus the data tuple."""
        events: list[tuple[object, StreamTuple]] = []
        if self.kind == AGGREGATE_STAGE:
            if self.key_attribute in tup.values:
                window_index = math.floor(tup.created_at / self.window)
                if self._current_window is None:
                    self._current_window = window_index
                elif window_index > self._current_window:
                    # window boundary: one global flush ticket, broadcast
                    events.append(self._sched[-1])
                    flush = StreamTuple(
                        stream_id=self._flush,
                        seq=window_index,
                        created_at=tup.created_at,
                        values={"window": float(window_index)},
                        size=CONTROL_SIZE,
                    )
                    events.extend(
                        (index, flush) for index in range(self.spec.parts)
                    )
                    self._current_window = window_index
                key = (
                    tup.values.get(self.group_by, 0.0)
                    if self.group_by
                    else 0.0
                )
                part = self.spec.partition_of(key)
                self.partition_counts[part] += 1
                self.key_counts[key] = self.key_counts.get(key, 0) + 1
            else:
                part = 0  # pass-through rides partition 0 for ordering
        else:
            if tup.stream_id in self.streams:
                key = tup.value(self.key_attribute)
                part = self.spec.partition_of(key)
                self.partition_counts[part] += 1
                self.key_counts[key] = self.key_counts.get(key, 0) + 1
            else:
                part = 0
        events.append(self._sched[part])
        events.append((part, tup))
        return events

    # ------------------------------------------------------------------
    def skew(self) -> float:
        """Max partition share over the ideal share (1.0 = even)."""
        total = sum(self.partition_counts)
        if not total:
            return 1.0
        return max(self.partition_counts) * self.spec.parts / total

    def repartition(self, spec: PartitionSpec) -> None:
        """Swap the live spec (rebalancing); skew counters restart."""
        if spec.parts != self.spec.parts:
            raise ValueError("repartitioning cannot change the part count")
        self.spec = spec
        self.reset_counts()

    def reset_counts(self) -> None:
        """Forget observed routing counts (after a rebalance)."""
        self.partition_counts = [0] * self.spec.parts
        self.key_counts = {}

    def reset(self) -> None:
        """Full reset for a fresh run: counts and watermark."""
        self.reset_counts()
        self._current_window = None


class PartitionStageOperator(Operator):
    """One partition of a split stage: a clone plus the event protocol.

    Runs the events the router assigned to this partition (data tuples
    and flush controls) as they arrive — in router order, links being
    FIFO.  Every event's outputs leave under the partition's constant
    ``<stage>.__p<i>__/`` prefix — the envelope lives in the stream id,
    so the tuple underneath survives byte-identical — followed by the
    partition's ack, which closes the event.
    """

    def __init__(self, inner: Operator, index: int, parts: int) -> None:
        super().__init__(
            f"{inner.name}[p{index}]",
            cost_per_tuple=inner.cost_per_tuple,
            estimated_selectivity=inner.estimated_selectivity + 1.0,
        )
        self.inner = inner
        self.index = index
        self.parts = parts
        self.flush = flush_stream(inner.name)
        self.prefix = f"{inner.name}.__p{index}__/"
        self.ack = StreamTuple(
            ack_stream(inner.name, index), 0, 0.0, {}, CONTROL_SIZE
        )

    # ------------------------------------------------------------------
    def cost(self, tup: StreamTuple) -> float:
        if tup.stream_id == self.flush:
            return self.inner.cost_per_tuple
        return self.inner.cost(tup)

    def process_batch(
        self, batch: list[StreamTuple], now: float
    ) -> list[StreamTuple]:
        out: list[StreamTuple] = []
        inner, flush, prefix = self.inner, self.flush, self.prefix
        for tup in batch:
            if tup.stream_id == flush:
                outs = inner.advance_window(int(tup.values["window"]))
            else:
                outs = inner.process_batch([tup], now)
            out.extend([res.relabel(prefix + res.stream_id) for res in outs])
            out.append(self.ack)
        return out

    def reset_state(self) -> None:
        self.inner.reset_state()


class MergeStageOperator(Operator):
    """Deterministic order-preserving merge of the partition outputs.

    Reads each partition's stream as a run of events: its enveloped
    outputs gather as the partition's open event until its ack closes
    the event.  Closed events leave strictly in the router's global
    ticket order — the schedule stream — so the merged output is
    independent of how the partitions' streams interleave.  A released
    tuple is built once, under its original stream id — with the next
    number of one global sequence counter when it carries the stage's
    output stream (exactly the single operator's ``_emit_seq``
    semantics), with its own ``seq`` when it passed through the stage.
    Tuples that are no envelope at all (a malformed or foreign stream
    id) are forwarded untouched.  A flush ticket takes the next event
    from *every* partition and interleaves the per-partition (sorted)
    flush outputs by group value, reproducing the single operator's
    globally sorted flush.
    """

    def __init__(
        self, stage: str, parts: int, *, group_by: str | None = None
    ) -> None:
        super().__init__(
            f"{stage}#merge",
            cost_per_tuple=2e-6,
            estimated_selectivity=0.5,
        )
        self.stage = stage
        self.parts = parts
        self.group_by = group_by
        self.out_stream = f"{stage}.out"
        self.sched = sched_stream(stage)
        # "<stage>.__p<part>__/<original stream id>", ASCII digits only
        self._envelope = re.compile(re.escape(f"{stage}.__p") + r"([0-9]+)__/")
        self._ack_index = {
            ack_stream(stage, index): index for index in range(parts)
        }
        self.reset_state()

    # ------------------------------------------------------------------
    def process_batch(
        self, batch: list[StreamTuple], now: float
    ) -> list[StreamTuple]:
        out: list[StreamTuple] = []
        sched = self.sched
        ack_index = self._ack_index
        envelope = self._envelope.match
        open_events = self._open
        parts = self.parts
        for tup in batch:
            stream_id = tup.stream_id
            if stream_id == sched:
                self._tickets.append(int(tup.values["partition"]))
            elif (part := ack_index.get(stream_id)) is not None:
                self._closed[part].append(open_events[part])
                open_events[part] = []
            else:
                match = envelope(stream_id)
                if match is None or (part := int(match[1])) >= parts:
                    out.append(tup)
                else:
                    open_events[part].append((tup, stream_id[match.end():]))
                continue  # only a ticket or a closed event can release
            self._release(out)
        return out

    # ------------------------------------------------------------------
    def _released(self, item: tuple[StreamTuple, str]) -> StreamTuple:
        tup, stream_id = item
        seq = tup.seq
        if stream_id == self.out_stream:
            seq = self._emit_seq
            self._emit_seq += 1
        return StreamTuple(
            stream_id, seq, tup.created_at, tup.values, tup.size
        )

    def _flush_key(self, item: tuple[StreamTuple, str]) -> float:
        if self.group_by is None:
            return 0.0
        return item[0].values.get(self.group_by, 0.0)

    def _release(self, out: list[StreamTuple]) -> None:
        """Append every event the schedule now lets go, ticket order."""
        tickets, closed = self._tickets, self._closed
        while tickets:
            part = tickets[0]
            if part >= 0:
                if not closed[part]:
                    return
                out.extend(map(self._released, closed[part].popleft()))
            else:
                if not all(closed):
                    return
                events = [events.popleft() for events in closed]
                out.extend(
                    map(
                        self._released,
                        heapq.merge(*events, key=self._flush_key),
                    )
                )
            tickets.popleft()

    def buffered(self) -> int:
        """In-flight events held back by the merge (0 when quiescent)."""
        return (
            len(self._tickets)
            + sum(map(len, self._open))
            + sum(map(len, self._closed))
        )

    def reset_state(self) -> None:
        # partition per ticket (-1 = flush); per partition, the outputs
        # of the event still open and the closed events not yet released
        self._tickets: deque[int] = deque()
        self._open: list[list[tuple[StreamTuple, str]]] = [
            [] for _ in range(self.parts)
        ]
        self._closed: list[deque[list[tuple[StreamTuple, str]]]] = [
            deque() for _ in range(self.parts)
        ]
        self._emit_seq = 0


# ----------------------------------------------------------------------
# Stage detection and state redistribution
# ----------------------------------------------------------------------
def stage_kind(op: Operator) -> str | None:
    """``join``/``aggregate`` when ``op`` can be partitioned, else None.

    A window join partitions on its key only for exact matches
    (``tolerance == 0``): hash partitioning a band join would separate
    tuples that match.  An aggregate partitions on its group attribute.
    """
    if isinstance(op, WindowJoinOperator) and op.tolerance == 0.0:
        return JOIN_STAGE
    if isinstance(op, WindowAggregateOperator) and op.group_by is not None:
        return AGGREGATE_STAGE
    return None


def partitionable_stage(plan: QueryPlan) -> int | None:
    """Index of the first partitionable stage, or None.

    The stage must not be the plan's head: the router runs where the
    pre-stage fragment ends, so there must be one (generated plans
    always lead with per-stream filters).
    """
    for index, op in enumerate(plan.operators):
        if index > 0 and stage_kind(op) is not None:
            return index
    return None


def redistribute_state(
    stages: list[PartitionStageOperator], spec: PartitionSpec
) -> None:
    """Move operator state between partition clones for a new spec.

    Must run at quiescence (sources gated, dataflow drained, merge
    buffers empty).  Join windows are pooled per stream, re-sorted by
    source sequence (= arrival order), and dealt back by the new spec;
    aggregate accumulators move by group, and the clone watermarks are
    aligned to the furthest one so no window flushes twice.
    """
    inners = [stage.inner for stage in stages]
    first = inners[0]
    if isinstance(first, WindowJoinOperator):
        pooled: dict[str, list[StreamTuple]] = {}
        for inner in inners:
            for stream_id, tuples in inner.snapshot_windows().items():
                pooled.setdefault(stream_id, []).extend(tuples)
        for tuples in pooled.values():
            tuples.sort(key=lambda t: t.seq)
        attribute = first.attribute
        for index, inner in enumerate(inners):
            inner.load_windows(
                {
                    stream_id: [
                        tup
                        for tup in tuples
                        if spec.partition_of(tup.value(attribute)) == index
                    ]
                    for stream_id, tuples in pooled.items()
                }
            )
    else:
        merged: dict[float, list[float]] = {}
        watermark: int | None = None
        for inner in inners:
            current, groups = inner.snapshot_groups()
            merged.update(groups)
            if current is not None:
                watermark = (
                    current if watermark is None else max(watermark, current)
                )
        for index, inner in enumerate(inners):
            inner.load_groups(
                watermark,
                {
                    group: acc
                    for group, acc in merged.items()
                    if spec.partition_of(group) == index
                },
            )


class PartitionedOperator(Operator):
    """The synchronous composition: router → stages → merge, in place.

    Drop-in replacement for the wrapped operator with identical
    observable behaviour (the equivalence property suite asserts
    bit-identical outputs and stats).  Also the unit the rebalance
    property tests drive mid-stream.
    """

    def __init__(self, inner: Operator, spec: PartitionSpec) -> None:
        if stage_kind(inner) is None:
            raise TypeError(f"{inner!r} is not a partitionable stage")
        super().__init__(
            inner.name,
            cost_per_tuple=inner.cost_per_tuple,
            estimated_selectivity=inner.estimated_selectivity,
        )
        self.spec = spec
        self.router = PartitionRouter.for_operator(inner, spec)
        self.stages = [
            PartitionStageOperator(inner.clone(), index, spec.parts)
            for index in range(spec.parts)
        ]
        group_by = (
            inner.group_by
            if isinstance(inner, WindowAggregateOperator)
            else None
        )
        self.merge = MergeStageOperator(
            inner.name, spec.parts, group_by=group_by
        )

    def process_batch(
        self, batch: list[StreamTuple], now: float
    ) -> list[StreamTuple]:
        merge = self.merge.process_batch
        out: list[StreamTuple] = []
        for tup in batch:
            for dest, event in self.router.route(tup):
                produced = [event]
                if dest != PartitionRouter.MERGE:
                    produced = self.stages[dest].process_batch(produced, now)
                out.extend(merge(produced, now))
        return out

    def rebalance(self) -> PartitionSpec:
        """Install a skew-correcting spec and move clone state over."""
        spec = self.router.spec.rebalanced(self.router.key_counts)
        redistribute_state(self.stages, spec)
        self.router.repartition(spec)
        self.spec = spec
        return spec

    def reset_state(self) -> None:
        self.router.reset()
        for stage in self.stages:
            stage.reset_state()
        self.merge.reset_state()


# ----------------------------------------------------------------------
# Plan-level deployment
# ----------------------------------------------------------------------
@dataclass
class PartitionedDeployment:
    """A query's partition-parallel fragment layout plus live hooks."""

    query_id: str
    kind: str
    spec: PartitionSpec
    router: PartitionRouter
    pre: Fragment
    parts: list[Fragment] = field(default_factory=list)
    merge: Fragment | None = None

    @property
    def fragments(self) -> list[Fragment]:
        """All fragments in order: pre, partitions, merge."""
        return [self.pre, *self.parts, self.merge]

    @property
    def stages(self) -> list[PartitionStageOperator]:
        """The partition stage operators, partition order."""
        return [fragment.operators[0] for fragment in self.parts]

    @property
    def merge_operator(self) -> MergeStageOperator:
        """The merge stage operator heading the merge fragment."""
        return self.merge.operators[0]

    def skew(self) -> float:
        """Observed routing skew since the last rebalance."""
        return self.router.skew()

    def rebalance(self) -> bool:
        """Skew-triggered rebalance under quiescence; True if changed.

        Callers (the adaptation loop) must have gated the sources and
        drained the dataflow first — asserted via the merge buffers.
        """
        if self.merge_operator.buffered():
            raise RuntimeError(
                f"{self.query_id}: rebalance requires a drained dataflow"
            )
        spec = self.router.spec.rebalanced(self.router.key_counts)
        if spec.overrides == self.router.spec.overrides:
            self.router.reset_counts()
            return False
        redistribute_state(self.stages, spec)
        self.router.repartition(spec)
        self.spec = spec
        return True


def plan_partitioned(
    plan: QueryPlan, parallelism: int, *, scheme: str = HASH
) -> PartitionedDeployment | None:
    """Split ``plan``'s hottest stage ``parallelism`` ways, if possible.

    Returns None when ``parallelism < 2`` or the plan has no
    partitionable stage behind a pre-fragment; callers then fall back to
    the plain chain fragmentation.
    """
    if parallelism < 2:
        return None
    index = partitionable_stage(plan)
    if index is None:
        return None
    op = plan.operators[index]
    kind = stage_kind(op)
    key = (
        op.attribute if kind == JOIN_STAGE else op.group_by  # type: ignore[union-attr]
    )
    spec = PartitionSpec(key=key, parts=parallelism, scheme=scheme)
    router = PartitionRouter.for_operator(op, spec)
    query_id = plan.query_id
    pre = Fragment(
        fragment_id=f"{query_id}#f0",
        query_id=query_id,
        index=0,
        operators=plan.operators[:index],
    )
    parts = [
        Fragment(
            fragment_id=f"{query_id}#p{i}",
            query_id=query_id,
            index=i + 1,
            operators=[PartitionStageOperator(op.clone(), i, parallelism)],
        )
        for i in range(parallelism)
    ]
    group_by = (
        op.group_by if isinstance(op, WindowAggregateOperator) else None
    )
    merge = Fragment(
        fragment_id=f"{query_id}#m",
        query_id=query_id,
        index=parallelism + 1,
        operators=[
            MergeStageOperator(op.name, parallelism, group_by=group_by),
            *plan.operators[index + 1:],
        ],
    )
    return PartitionedDeployment(
        query_id=query_id,
        kind=kind,
        spec=spec,
        router=router,
        pre=pre,
        parts=parts,
        merge=merge,
    )
