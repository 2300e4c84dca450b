"""One entity's intra-entity wiring, derived from its hosting model.

§4 describes a single dataflow inside an entity: the gateway hands a
stream tuple to the stream's delegation processor, the delegate routes
it to the head fragment of every hosted query consuming the stream
(the live leg: once to each processor hosting such heads, which feeds
its own — ``LiveProcessor._intake_batch``), and
fragment outputs hop over the LAN — to the next fragment of the chain,
across a partition fan-out, across a shared prefix's tap fan-out — until
the last fragment ships results back to the gateway.

:func:`derive_wiring` is the only place that dataflow is spelled out.
It is a pure function of the *hosting model* — ``hosted[*].{fragments,
chain_procs, partition, shared_group}`` plus the entity's shared
deployments — and returns plain tables: fragments per processor, one
out-edge per fragment, and the delegate head routes.

The plan routes, the legs carry: every edge answers ``route(outputs)``
with the hops those outputs take — ``(proc, target, tuples)``, ``target``
a fragment id on ``proc`` or, with ``proc is None``, the query whose
results they are — and a leg only carries them: the simulator a network
send per tuple (:meth:`repro.core.entity.Entity._hop`), the live runtime
an inline fragment run or a batched channel send
(``LiveProcessor._deliver``; tables loaded by
:meth:`repro.live.runtime.LiveDataflow.rewire`).  Online changes
(migration, registration, teardown, re-sharing, processor fail-over)
never patch the tables: they edit the model and re-derive.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from repro.engine.partition import PartitionRouter
from repro.engine.plan import Fragment
from repro.streams.tuples import StreamTuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.entity import Entity


# One hop of a fragment's outputs: ``(proc, target, tuples)``.
Hop = tuple[str | None, str, list[StreamTuple]]


class ToFragment(NamedTuple):
    """Chain edge: outputs hop to one downstream fragment."""

    proc: str
    fragment_id: str

    def route(self, outputs: list[StreamTuple]) -> Sequence[Hop]:
        """One hop, to the downstream fragment."""
        return ((self.proc, self.fragment_id, outputs),)


class ToPartitions(NamedTuple):
    """Partition fan-out: the router turns each output into sequenced
    events, each bound for ``routes[dest] = (proc, fragment_id)``."""

    router: PartitionRouter
    routes: dict[object, tuple[str, str]]

    def route(self, outputs: list[StreamTuple]) -> Sequence[Hop]:
        """One hop per routed event, in router order (the only edge
        that decides per tuple)."""
        route, routes = self.router.route, self.routes
        return [
            (*routes[dest], [event])
            for out in outputs
            for dest, event in route(out)
        ]


class ToTaps(NamedTuple):
    """Tap fan-out: a shared prefix's outputs go to every member tap
    ``(proc, fragment_id)``."""

    taps: tuple[tuple[str, str], ...]

    def route(self, outputs: list[StreamTuple]) -> Sequence[Hop]:
        """One hop per member tap, all handed the same list."""
        return [(proc, tap_id, outputs) for proc, tap_id in self.taps]


class ToResult(NamedTuple):
    """Result edge: outputs are ``query_id``'s results."""

    query_id: str

    def route(self, outputs: list[StreamTuple]) -> Sequence[Hop]:
        """One hop, to the gateway (``proc`` ``None``)."""
        return ((None, self.query_id, outputs),)


Edge = ToFragment | ToPartitions | ToTaps | ToResult


@dataclass(frozen=True)
class EntityWiring:
    """The complete wiring of one entity.

    Attributes:
        fragments: Per processor, the fragments it executes (by id).
        downstream: Per processor, each of those fragments' out-edge.
        head_routes: Per input stream, the ``(fragment_id, proc)`` head
            fragments the stream's delegate feeds, in hosting order.
        head_tenants: Owning tenant of every standalone query's head
            fragment.  Shared prefix heads serve several queries and
            have no single owner, so they are absent.
    """

    fragments: dict[str, dict[str, Fragment]]
    downstream: dict[str, dict[str, Edge]]
    head_routes: dict[str, list[tuple[str, str]]]
    head_tenants: dict[str, str]


def derive_wiring(entity: "Entity") -> EntityWiring:
    """Map an entity's hosting model to its wiring (reads only
    ``entity.hosted``, ``entity.shared`` and the processor ids).

    Standalone queries come first in hosting order (a plain chain, or
    pre → partitions → merge when ``partition`` is set), then the shared
    groups in deployment order (prefix → member taps); members of a
    group contribute nothing on their own.
    """
    fragments: dict[str, dict[str, Fragment]] = {
        proc: {} for proc in entity.processors
    }
    downstream: dict[str, dict[str, Edge]] = {p: {} for p in fragments}
    head_routes: dict[str, list[tuple[str, str]]] = {}
    head_tenants: dict[str, str] = {}

    def place(fragment: Fragment, proc: str, edge: Edge) -> None:
        fragments[proc][fragment.fragment_id] = fragment
        downstream[proc][fragment.fragment_id] = edge

    def feed(streams: Iterable[str], head: Fragment, proc: str) -> None:
        for stream_id in streams:
            head_routes.setdefault(stream_id, []).append(
                (head.fragment_id, proc)
            )

    for query in entity.hosted.values():
        if query.shared_group is not None:
            continue
        query_id = query.spec.query_id
        procs = query.chain_procs
        if query.partition is not None:
            deployment = query.partition
            merge_proc, merge_id = procs[-1], deployment.merge.fragment_id
            routes: dict[object, tuple[str, str]] = {
                index: (proc, part.fragment_id)
                for index, (part, proc) in enumerate(
                    zip(deployment.parts, procs[1:-1])
                )
            }
            routes[PartitionRouter.MERGE] = (merge_proc, merge_id)
            place(
                deployment.pre,
                procs[0],
                ToPartitions(deployment.router, routes),
            )
            for part, proc in zip(deployment.parts, procs[1:-1]):
                place(part, proc, ToFragment(merge_proc, merge_id))
            place(deployment.merge, merge_proc, ToResult(query_id))
        else:
            chain = list(zip(query.fragments, procs))
            for (fragment, proc), (successor, next_proc) in zip(
                chain, chain[1:]
            ):
                place(
                    fragment,
                    proc,
                    ToFragment(next_proc, successor.fragment_id),
                )
            place(*chain[-1], ToResult(query_id))
        head = query.fragments[0]
        feed(query.spec.input_streams, head, procs[0])
        head_tenants[head.fragment_id] = query.spec.tenant

    for deployment in entity.shared.values():
        group = deployment.group
        taps = []
        for query_id in group.members:
            tap = group.taps[query_id]
            proc = deployment.tap_procs[query_id]
            place(tap, proc, ToResult(query_id))
            taps.append((proc, tap.fragment_id))
        place(group.shared, deployment.shared_proc, ToTaps(tuple(taps)))
        feed(group.input_streams, group.shared, deployment.shared_proc)

    return EntityWiring(fragments, downstream, head_routes, head_tenants)
