"""One wiring value per entity, interpreted by sim and live alike.

``derive_wiring`` maps an entity's hosting model to its complete wiring;
the simulator and the live runtime must both be wired from exactly that
value, for every edge kind at once — a plain chain, a partition-parallel
query and a shared group in one federation — and the ``wiring`` audit
must notice a model edit that was not followed by a re-derivation.

The plan routes, the legs carry: every edge kind's ``route`` is pinned
as a table of exact hops, the sim's ``_hop`` and the live ``_deliver``
must carry the same hops in the same order, and no module but
``core/wiring.py`` may name an edge kind.

The live delegate relays a stream once per processor hosting a head,
not once per head: the relay rule is pinned on a stubbed processor.
"""

from __future__ import annotations

import ast
import asyncio
from pathlib import Path

import pytest

import repro
from repro.analysis.invariants import audit_federation
from repro.core.entity import Entity
from repro.core.system import SystemConfig
from repro.core.wiring import (
    ToFragment,
    ToPartitions,
    ToResult,
    ToTaps,
    derive_wiring,
)
from repro.engine.partition import PartitionRouter, plan_partitioned
from repro.interest.predicates import StreamInterest
from repro.live import LiveProcessor, LiveRuntime, LiveSettings
from repro.live.entity_task import RELAY, _runs
from repro.query.spec import AggregateSpec, QuerySpec
from repro.simulation.network import Network, NetworkNode
from repro.simulation.simulator import Simulator
from repro.streams.catalog import stock_catalog
from repro.streams.tuples import StreamTuple


@pytest.fixture(scope="module")
def runtime():
    catalog = stock_catalog(exchanges=2, rate=40.0)
    config = SystemConfig(
        entity_count=2,
        processors_per_entity=3,
        seed=3,
        partition_parallelism=2,
        shared_execution=True,
    )

    def on(stream, lo, hi):
        return (StreamInterest.on(stream, price=(lo, hi)),)

    queries = [
        # partition-parallel: a grouped aggregate
        QuerySpec(
            query_id="agg",
            interests=on("exchange-0.trades", 50.0, 900.0),
            aggregate=AggregateSpec(
                attribute="price", fn="sum", window=0.25, group_by="symbol"
            ),
        ),
        # a shared group: identical leading filter, private projections
        *(
            QuerySpec(
                query_id=f"ov{i}",
                interests=on("exchange-1.trades", 100.0, 600.0),
                project=project,
            )
            for i, project in enumerate(
                (None, ("price",), ("price", "symbol"))
            )
        ),
        # a plain chain nothing else overlaps with
        QuerySpec(
            query_id="lone", interests=on("exchange-0.trades", 700.0, 800.0)
        ),
    ]
    runtime = LiveRuntime(catalog, config, LiveSettings(duration=1.0))
    runtime.submit(queries)
    runtime.run()
    return runtime


def test_sim_and_live_are_wired_from_the_identical_value(runtime):
    planner, flow = runtime.planner, runtime.dataflow
    edge_kinds = set()
    for entity_id, entity in planner.entities.items():
        wiring = derive_wiring(entity)
        # sim: the value deploy() interpreted, installed engine by engine
        assert entity.wiring == wiring
        for proc_id, engine in entity.engines.items():
            assert set(engine.fragment_ids) == set(wiring.fragments[proc_id])
        # live: the tables every processor task executes from
        for proc_id in entity.processors:
            task = flow.processors[(entity_id, proc_id)]
            assert task.fragments == wiring.fragments[proc_id]
            assert task.downstream == wiring.downstream[proc_id]
            assert task.head_routes == wiring.head_routes
            edge_kinds.update(map(type, task.downstream.values()))
    # the federation really contained all three layouts
    hosted = [
        h for entity in planner.entities.values() for h in entity.hosted.values()
    ]
    assert any(h.partition is not None for h in hosted)
    assert any(h.shared_group is not None for h in hosted)
    assert any(h.partition is None and h.shared_group is None for h in hosted)
    assert edge_kinds == {ToFragment, ToPartitions, ToTaps, ToResult}
    assert runtime.results
    assert audit_federation(planner, dataflow=flow) == []


def test_audit_flags_a_model_edit_without_rederivation(runtime):
    planner, flow = runtime.planner, runtime.dataflow
    entity = next(e for e in planner.entities.values() if "lone" in e.hosted)
    hosted = entity.hosted["lone"]
    placed = list(hosted.chain_procs)
    hosted.chain_procs = [
        next(p for p in sorted(entity.processors) if p != placed[0]),
        *placed[1:],
    ]
    try:
        violations = audit_federation(planner, dataflow=flow)
        assert violations and {v.check for v in violations} == {"wiring"}
        entity.rewire()
        flow.rewire(entity)
        assert audit_federation(planner, dataflow=flow) == []
    finally:
        hosted.chain_procs = placed
        entity.rewire()
        flow.rewire(entity)


# ----------------------------------------------------------------------
# Edge.route, as tables
# ----------------------------------------------------------------------
EDGE_KINDS = ("ToFragment", "ToPartitions", "ToTaps", "ToResult")


def trade(seq, at, symbol=1.0):
    return StreamTuple(
        "exchange-0.trades",
        seq,
        at,
        {"symbol": symbol, "price": 100.0 + seq, "volume": 10.0},
        48.0,
    )


def fresh_router():
    """The router of a 2-way partitioned grouped aggregate (window 0.25)."""
    spec = QuerySpec(
        query_id="agg",
        interests=(StreamInterest.on("exchange-0.trades", price=(1.0, 990.0)),),
        aggregate=AggregateSpec(
            attribute="price", fn="sum", window=0.25, group_by="symbol"
        ),
    )
    plan = spec.build_plan(stock_catalog(exchanges=1))
    return plan_partitioned(plan, 2).router


PARTITION_ROUTES = {
    0: ("a", "agg#p0"),
    1: ("b", "agg#p1"),
    PartitionRouter.MERGE: ("b", "agg#merge"),
}
# the third tuple opens the next window: a flush reaches every
# partition, announced to the merge
PARTITION_OUTPUTS = [
    trade(0, 0.05, 1.0),
    trade(1, 0.10, 2.0),
    trade(2, 0.30, 1.0),
]


def test_one_hop_edges_route_the_output_list_itself():
    outputs = [trade(0, 0.0), trade(1, 0.1)]
    for edge, hop in (
        (ToFragment("b", "q#f1"), ("b", "q#f1", outputs)),
        (ToResult("q"), (None, "q", outputs)),
    ):
        hops = list(edge.route(outputs))
        assert hops == [hop]
        assert hops[0][2] is outputs


def test_tap_edge_routes_one_hop_per_member_with_the_same_list():
    outputs = [trade(0, 0.0), trade(1, 0.1)]
    taps = (("a", "q0#tap"), ("b", "q1#tap"), ("a", "q2#tap"))
    hops = list(ToTaps(taps).route(outputs))
    assert hops == [(proc, tap, outputs) for proc, tap in taps]
    assert all(hop[2] is outputs for hop in hops)


def test_partition_edge_routes_one_hop_per_event_in_router_order():
    edge = ToPartitions(fresh_router(), PARTITION_ROUTES)
    reference = fresh_router()
    routed = [reference.route(out) for out in PARTITION_OUTPUTS]
    hops = list(edge.route(PARTITION_OUTPUTS))
    assert hops == [
        (*PARTITION_ROUTES[dest], [event])
        for sends in routed
        for dest, event in sends
    ]
    # the window boundary fanned a flush to every partition + the merge
    boundary = [dest for dest, __ in routed[2]]
    assert set(boundary) == set(PARTITION_ROUTES)
    assert len(boundary) > 2  # more than "one control + one data tuple"


# ----------------------------------------------------------------------
# The two legs carry the same hops
# ----------------------------------------------------------------------
class StubFragment:
    """``run_batch`` returns what the test scripted (default: nothing)
    and logs what arrived."""

    query_id = "q"

    def __init__(self, fragment_id, log, proc, outputs=()):
        self.fragment_id = fragment_id
        self.log, self.proc, self.outputs = log, proc, list(outputs)

    def cost_for_batch(self, batch):
        return 0.0

    def leading_selection(self, stream_id):
        return None  # selects nothing ahead: intake runs it whole

    def run_batch(self, batch, now):
        self.log.extend((self.proc, self.fragment_id, tup) for tup in batch)
        return self.outputs


class RecordingSender:
    """Stands in for a ``Sender``: logs every item, never fills."""

    def __init__(self, proc, log):
        self.proc, self.log = proc, log

    def add_many(self, items):
        self.log.extend((self.proc, target, tup) for target, tup in items)
        return []


class ImmediateNetwork:
    """Stands in for the simulated network: delivers on the spot."""

    def send(self, src, dst, size, payload=None, on_delivery=None):
        on_delivery(payload)


class RecordingEngine:
    def __init__(self, proc, log):
        self.proc, self.log = proc, log

    def ingest(self, fragment_id, tup):
        self.log.append((self.proc, fragment_id, tup))


def edges_under_test():
    return {
        "chain": ToFragment("b", "next"),
        "colocated": ToFragment("a", "sink"),
        "prefix": ToTaps((("a", "sink"), ("b", "tap-b"), ("b", "tap-c"))),
        "pre": ToPartitions(fresh_router(), PARTITION_ROUTES),
        "last": ToResult("q"),
    }


def stub_processor(proc_id, head_routes, log, dests):
    """A ``LiveProcessor`` with no channels: sends to ``dests`` land in
    ``log``, CPU accounting is off, the clock stands at 0."""
    proc = LiveProcessor(
        "e", proc_id, None, head_routes, {}, None, None, None, None, None
    )
    proc._record_busy = lambda fragment, cost: None
    proc.clock = type("Clock", (), {"now": 0.0})
    proc._senders = {dest: RecordingSender(dest, log) for dest in dests}
    return proc


def live_hops(outputs):
    """Per head fragment on processor ``a``: what ``_deliver`` carried."""

    async def main():
        carried = {}
        for head, edge in edges_under_test().items():
            log: list = []
            proc = stub_processor("a", {}, log, ("b", None))
            proc.fragments.update(
                {
                    head: StubFragment(head, [], "a", outputs),
                    "sink": StubFragment("sink", log, "a"),
                    "agg#p0": StubFragment("agg#p0", log, "a"),
                }
            )
            proc.downstream[head] = edge
            await proc._deliver([("a", head, [trade(99, 0.0)])])
            carried[head] = log
        return carried

    return asyncio.run(main())


def sim_hops(outputs):
    """Per head fragment on processor ``a``: what ``_hop`` carried."""
    sim = Simulator(seed=0)
    net = Network(sim)
    net.add_node(NetworkNode("e", 0.5, 0.5, group="e"))
    nodes = [
        net.add_node(NetworkNode(p, tier="lan", group="e", x=0.5, y=0.5))
        for p in ("a", "b")
    ]
    entity = Entity(sim, net, "e", nodes, stock_catalog(exchanges=1))
    # a hop lands where the wiring runs its fragment: where edges send it
    entity._proc_of = {
        "next": "b",
        "sink": "a",
        "tap-b": "b",
        "tap-c": "b",
        **{fragment: proc for proc, fragment in PARTITION_ROUTES.values()},
    }
    carried = {}
    for head, edge in edges_under_test().items():
        log: list = []
        entity.network = ImmediateNetwork()
        entity.engines = {p: RecordingEngine(p, log) for p in ("a", "b")}
        entity.result_handler = lambda qid, tup: log.append((None, qid, tup))
        carry = entity._carry("a", edge)
        for out in outputs:
            carry(out)
        carried[head] = log
    return carried


def test_sim_hop_and_live_deliver_carry_the_same_hops():
    live, sim = live_hops(PARTITION_OUTPUTS), sim_hops(PARTITION_OUTPUTS)
    assert live.keys() == sim.keys()
    for head in live:
        assert live[head], head
        if head == "prefix":
            # a tap fan-out hands each tap the whole batch in turn; per
            # tuple, the sim visits every tap — same hops per tap
            key = lambda hop: (hop[0], hop[1])  # noqa: E731
            assert sorted(live[head], key=key) == sorted(sim[head], key=key)
        else:
            assert live[head] == sim[head], head
    # all four kinds really produced local, remote and result hops
    dests = {hop[0] for log in live.values() for hop in log}
    assert dests == {"a", "b", None}


# ----------------------------------------------------------------------
# The delegate relays once per processor, a relay never relays again
# ----------------------------------------------------------------------
STREAM = "exchange-0.trades"
# heads h0..h4 in hosting order: two on a, two on b, one on c
HEAD_ROUTES = [("h0", "a"), ("h1", "b"), ("h2", "a"), ("h3", "b"), ("h4", "c")]


def intake(proc_id, target, run, routes=HEAD_ROUTES):
    """What processor ``proc_id`` does with ``run`` arriving as
    ``(target, tuple)`` inbox items: heads it ran and items it sent,
    in order, as ``(proc, target, tuple)``."""

    async def main():
        log: list = []
        proc = stub_processor(
            proc_id, {STREAM: routes}, log, {"a", "b", "c"} - {proc_id}
        )
        proc.fragments.update(
            {
                head: StubFragment(head, log, proc_id)
                for head, host in routes
                if host == proc_id
            }
        )
        proc.load_heads()
        await proc._execute_batch([(target, tup) for tup in run])
        return log

    return asyncio.run(main())


def test_delegate_runs_its_heads_and_relays_once_per_other_processor():
    run = [trade(0, 0.0), trade(1, 0.1)]
    # each other processor is relayed to at its first head in hosting
    # order (b before a's second head, c last), once however many heads
    # it hosts
    assert intake("a", None, run) == [
        (proc, target, tup)
        for proc, target in (
            ("a", "h0"), ("b", RELAY), ("a", "h2"), ("c", RELAY)
        )
        for tup in run
    ]
    # a delegate hosting no head of the stream only relays
    elsewhere = [route for route in HEAD_ROUTES if route[1] != "a"]
    assert intake("a", None, run, elsewhere) == [
        (proc, RELAY, tup) for proc in ("b", "c") for tup in run
    ]


def test_a_relayed_run_feeds_only_its_own_heads_and_sends_nothing():
    run = [trade(0, 0.0), trade(1, 0.1)]
    assert intake("b", RELAY, run) == [
        ("b", head, tup) for head in ("h1", "h3") for tup in run
    ]
    assert intake("c", RELAY, run) == [("c", "h4", tup) for tup in run]


def test_relay_marker_is_no_fragment_id_and_survives_runs(runtime):
    fragment_ids = {
        fragment_id
        for entity in runtime.planner.entities.values()
        for per_proc in derive_wiring(entity).fragments.values()
        for fragment_id in per_proc
    }
    assert fragment_ids
    assert all(RELAY != fid and fid != RELAY for fid in fragment_ids)
    assert RELAY is not None and RELAY == RELAY
    # _runs compares keys with == / list.count: one run stays whole, a
    # marker between intake and a fragment hop is cut out exactly
    items = list("abcdef")
    assert _runs([RELAY] * 6, items) == ((RELAY, items),)
    fid = min(fragment_ids)
    assert list(_runs([None, RELAY, RELAY, fid, RELAY, None], items)) == [
        (None, ["a"]),
        (RELAY, ["b", "c"]),
        (fid, ["d"]),
        (RELAY, ["e"]),
        (None, ["f"]),
    ]


# ----------------------------------------------------------------------
# Nobody else names an edge kind
# ----------------------------------------------------------------------
def test_only_the_wiring_module_names_an_edge_kind():
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path == root / "core" / "wiring.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            name = (
                node.id
                if isinstance(node, ast.Name)
                else node.attr
                if isinstance(node, ast.Attribute)
                else node.name
                if isinstance(node, ast.alias)
                else None
            )
            if name in EDGE_KINDS:
                offenders.append(f"{path.relative_to(root)}:{name}")
    assert offenders == []
