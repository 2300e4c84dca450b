"""Multi-query shared-computation optimizer.

The §3.2.2 allocator colocates queries with high interest overlap, but
colocation alone only saves WAN bandwidth: each query still evaluates
its own copy of the same leading filters, windows and joins.  This
module turns that overlap into a CPU win.  Colocated queries are grouped
by the longest common prefix of their canonical operator fingerprints
(:meth:`QuerySpec.operator_fingerprints`), and each group is rewritten
into

* one **shared fragment** — a single instance of the common prefix,
  receiving each input tuple once and running through the ordinary fused
  :meth:`Fragment.run_batch` path, and
* one **tap fragment per member** — a :class:`TapOperator` (which
  relabels prefix outputs back to the member's own operator names, so
  results stay bit-identical to unshared execution) followed by the
  member's private suffix operators.

The tap fragments slice the member's *canonical plan* instances, so a
query's stateful suffix operators (windows, accumulators) survive any
re-share: re-grouping builds new fragment objects around the same
operator instances.  The shared prefix itself is rebuilt fresh — safe
before data flows, and safe at any quiescent point when the prefix is
stateless (filters only).  Groups whose shared prefix contains stateful
operators (``join``/``agg`` fingerprints) are flagged ``stateful``: they
may only be formed at deploy time and their members are pinned against
migration, because splitting them would need a per-member copy of shared
window state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.operators.base import Operator
from repro.engine.plan import Fragment, QueryPlan
from repro.query.spec import QuerySpec
from repro.streams.catalog import StreamCatalog
from repro.streams.tuples import StreamTuple

#: Fingerprint kinds whose operators keep window state — a shared prefix
#: containing one cannot be split once data has flowed.
STATEFUL_KINDS = frozenset({"join", "agg"})

#: Fingerprint kinds whose outputs carry ``<operator name>.out`` stream
#: ids and therefore need relabelling at the tap.
_RENAMING_KINDS = frozenset({"join", "agg", "union"})


class TapOperator(Operator):
    """Per-query fan-out point at the end of a shared prefix.

    Passes tuples through at (near) zero cost, relabelling stream ids
    that a shared prefix operator stamped with *its* name back to the
    member query's own operator name — joins, unions and aggregates
    embed their instance name in output ``stream_id``, and bit-identical
    results require the member's name, not the shared instance's.
    """

    def __init__(
        self,
        name: str,
        query_id: str,
        rename: dict[str, str] | None = None,
    ) -> None:
        super().__init__(name, cost_per_tuple=0.0, estimated_selectivity=1.0)
        self.query_id = query_id
        self.rename = dict(rename or {})

    def fingerprint(self) -> tuple:
        return ("tap", self.query_id, tuple(sorted(self.rename.items())))

    def process_batch(
        self, batch: list[StreamTuple], now: float
    ) -> list[StreamTuple]:
        """Batch kernel: one comprehension, rename map pre-bound."""
        rename = self.rename
        if not rename:
            return list(batch)
        return [
            tup if tup.stream_id not in rename else tup.relabel(rename[tup.stream_id])
            for tup in batch
        ]


@dataclass
class SharedFragment(Fragment):
    """A fragment evaluating a shared prefix on behalf of ``members``.

    ``query_id`` holds the group id; runtimes that attribute CPU per
    query split this fragment's cost evenly across the members.
    """

    members: tuple[str, ...] = ()
    stateful: bool = False


@dataclass
class SharedGroup:
    """One rewritten sharing group: shared prefix + per-member taps."""

    group_id: str
    members: tuple[str, ...]
    prefix_len: int
    input_streams: tuple[str, ...]
    shared: SharedFragment
    taps: dict[str, Fragment] = field(default_factory=dict)
    stateful: bool = False

    def cpu_saved_estimate(self, catalog: StreamCatalog) -> float:
        """Estimated CPU sec/sec saved vs. unshared execution.

        Each member beyond the first would have run its own copy of the
        prefix over the full group input rate.
        """
        rate = sum(catalog.schema(s).rate for s in self.input_streams)
        return (len(self.members) - 1) * self.shared.estimated_load(rate)


@dataclass
class SharedDeployment:
    """A :class:`SharedGroup` wired onto an entity's processors."""

    group: SharedGroup
    shared_proc: str
    tap_procs: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class SharingStats:
    """Aggregate sharing counters for monitoring reports."""

    shared_fragments: int = 0
    shared_queries: int = 0
    taps_per_group: tuple[int, ...] = ()
    cpu_saved_estimate: float = 0.0

    def summary(self) -> str:
        """One monitoring line."""
        return (
            f"shared_fragments={self.shared_fragments} "
            f"shared_queries={self.shared_queries} "
            f"taps_per_group={list(self.taps_per_group)} "
            f"cpu_saved_estimate={self.cpu_saved_estimate:.6f}"
        )


# ---------------------------------------------------------------------------
# Grouping
# ---------------------------------------------------------------------------
def prefix_is_stateful(fingerprints: tuple[tuple, ...], length: int) -> bool:
    """Whether the first ``length`` fingerprints contain a stateful op."""
    return any(fp[0] in STATEFUL_KINDS for fp in fingerprints[:length])


def stateless_prefix_len(
    fingerprints: tuple[tuple, ...], length: int
) -> int:
    """Clip a prefix length to its leading stateless (filter) run."""
    for index in range(min(length, len(fingerprints))):
        if fingerprints[index][0] in STATEFUL_KINDS:
            return index
    return min(length, len(fingerprints))


def group_id_for(members: tuple[str, ...]) -> str:
    """Deterministic group id: derived from the smallest member id.

    A query belongs to at most one group, so the minimum member names
    the group uniquely — and deterministically across re-planning
    workers in the distributed runtime.
    """
    return f"sh.{min(members)}"


def find_groups(
    specs: list[QuerySpec],
    *,
    allow_stateful: bool = True,
) -> list[tuple[tuple[str, ...], int]]:
    """Group queries by fingerprinted shared prefixes.

    Queries are bucketed by (input stream set, head fingerprint) — equal
    stream sets keep foreign streams from leaking through a shared
    prefix's pass-through filters — and each bucket of two or more
    shares its members' longest common fingerprint prefix.  With
    ``allow_stateful=False`` the prefix is clipped to the leading
    stateless run (dynamic re-sharing at a quiescent point must not
    fabricate shared window state).

    Returns ``(sorted member ids, prefix length)`` per group, sorted by
    group id for determinism.
    """
    buckets: dict[tuple, list[tuple[str, tuple[tuple, ...]]]] = {}
    for spec in specs:
        fps = spec.operator_fingerprints()
        key = (frozenset(spec.input_streams), fps[0])
        buckets.setdefault(key, []).append((spec.query_id, fps))
    groups: list[tuple[tuple[str, ...], int]] = []
    for bucket in buckets.values():
        if len(bucket) < 2:
            continue
        prefix = len(bucket[0][1])
        base = bucket[0][1]
        for __, fps in bucket[1:]:
            common = 0
            for a, b in zip(base, fps):
                if a != b:
                    break
                common += 1
            prefix = min(prefix, common)
        if not allow_stateful:
            prefix = stateless_prefix_len(base, prefix)
        if prefix < 1:
            continue
        members = tuple(sorted(qid for qid, __ in bucket))
        groups.append((members, prefix))
    return sorted(groups, key=lambda g: group_id_for(g[0]))


# ---------------------------------------------------------------------------
# Rewrite
# ---------------------------------------------------------------------------
def build_group(
    members: tuple[str, ...],
    prefix_len: int,
    specs: dict[str, QuerySpec],
    plans: dict[str, QueryPlan],
    catalog: StreamCatalog,
) -> SharedGroup:
    """Rewrite one group into a shared fragment plus per-member taps.

    ``plans`` must hold each member's *canonical* plan
    (:meth:`QuerySpec.build_canonical_plan`): tap fragments slice those
    operator instances directly so stateful suffix state is preserved
    across re-shares, while the shared prefix is built fresh under the
    group id (from the smallest member's spec — all members' prefixes
    fingerprint equal, so any representative is semantically valid).
    """
    members = tuple(sorted(members))
    gid = group_id_for(members)
    rep = specs[members[0]]
    prefix_ops = rep.build_canonical_plan(catalog, query_id=gid).operators[
        :prefix_len
    ]
    fps = tuple(op.fingerprint() for op in prefix_ops)
    stateful = any(fp[0] in STATEFUL_KINDS for fp in fps)
    shared = SharedFragment(
        fragment_id=f"{gid}#f0",
        query_id=gid,
        index=0,
        operators=prefix_ops,
        members=members,
        stateful=stateful,
    )
    taps: dict[str, Fragment] = {}
    for qid in members:
        own_prefix = plans[qid].operators[:prefix_len]
        rename = {
            f"{shared_op.name}.out": f"{own_op.name}.out"
            for shared_op, own_op, fp in zip(prefix_ops, own_prefix, fps)
            if fp[0] in _RENAMING_KINDS
        }
        tap = TapOperator(f"{qid}.tap", qid, rename)
        taps[qid] = Fragment(
            fragment_id=f"{qid}#tap",
            query_id=qid,
            index=0,
            operators=[tap, *plans[qid].operators[prefix_len:]],
        )
    return SharedGroup(
        group_id=gid,
        members=members,
        prefix_len=prefix_len,
        input_streams=tuple(rep.input_streams),
        shared=shared,
        taps=taps,
        stateful=stateful,
    )


def plan_shared(
    specs: list[QuerySpec],
    plans: dict[str, QueryPlan],
    catalog: StreamCatalog,
    *,
    allow_stateful: bool = True,
) -> list[SharedGroup]:
    """The full optimizer pass: group eligible specs and rewrite them.

    Callers pass only sharing-eligible queries (plain linear chains —
    partition-parallel deployments keep their own fan-out machinery).
    Returns the groups; queries absent from every group deploy on the
    ordinary unshared path.
    """
    by_id = {spec.query_id: spec for spec in specs}
    return [
        build_group(members, prefix_len, by_id, plans, catalog)
        for members, prefix_len in find_groups(
            specs, allow_stateful=allow_stateful
        )
    ]


# ---------------------------------------------------------------------------
# Monitoring + allocator feedback
# ---------------------------------------------------------------------------
def collect_stats(
    deployments_by_entity: dict[str, dict[str, SharedDeployment]],
    catalog: StreamCatalog,
) -> SharingStats:
    """Summarise every entity's realized sharing for reports."""
    taps: list[int] = []
    saved = 0.0
    queries = 0
    for deployments in deployments_by_entity.values():
        for deployment in deployments.values():
            group = deployment.group
            taps.append(len(group.taps))
            queries += len(group.members)
            saved += group.cpu_saved_estimate(catalog)
    return SharingStats(
        shared_fragments=len(taps),
        shared_queries=queries,
        taps_per_group=tuple(sorted(taps, reverse=True)),
        cpu_saved_estimate=saved,
    )


def reinforce_query_graph(
    graph,
    deployments_by_entity: dict[str, dict[str, SharedDeployment]],
    catalog: StreamCatalog,
) -> int:
    """Feed realized sharing back into query-graph edge weights.

    Members of a realized group get their pairwise edge weight raised by
    the group's shared input byte rate: separating them would make the
    engine re-evaluate the prefix per query *and* re-ship the data, so
    the partitioner should prefer cutting elsewhere.  Returns the number
    of edges reinforced.
    """
    reinforced = 0
    for deployments in deployments_by_entity.values():
        for deployment in deployments.values():
            group = deployment.group
            bonus = sum(
                catalog.schema(s).bytes_per_second
                for s in group.input_streams
            )
            members = group.members
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    if a in graph.vertex_weights and b in graph.vertex_weights:
                        graph.add_edge(a, b, graph.weight(a, b) + bonus)
                        reinforced += 1
    return reinforced
