"""E5 — coordinator tree: query-stream scalability and churn resilience.

Paper claims (§3.2.1): "The query allocation algorithm should be
scalable to fast query streams" (hierarchical routing costs one message
per level, not per entity) and the tree maintains its cluster-size
invariants under joins/leaves/failures detected by heartbeats.
"""

from __future__ import annotations

import random

from repro.bench.reporting import Table, emit, format_series, print_header
from repro.coordination.membership import MembershipRuntime
from repro.coordination.routing import QueryRouter
from repro.coordination.tree import CoordinatorTree, Member
from repro.simulation.failure import ChurnSchedule, FailureInjector
from repro.simulation.simulator import Simulator

MEMBER_COUNTS = [16, 64, 256, 1024]


def build_tree(n, k=3, seed=41):
    rng = random.Random(seed)
    tree = CoordinatorTree(k=k)
    for i in range(n):
        tree.join(Member(f"m{i:04d}", rng.random(), rng.random()))
    return tree


def test_routing_scales_with_membership():
    """Messages per routed query grow with tree depth (log n), not n."""
    results = {}

    def sweep():
        for n in MEMBER_COUNTS:
            tree = build_tree(n)
            router = QueryRouter(tree)
            rng = random.Random(1)
            queries = 200
            for i in range(queries):
                router.route(f"q{i}", 1.0, (rng.random(), rng.random()))
            results[n] = {
                "depth": tree.depth,
                "messages_per_query": router.routing_messages / queries,
                "imbalance": router.imbalance(),
            }
        return results

    sweep()

    print_header("E5 — query routing cost vs membership size")
    table = Table(["entities", "tree depth", "msgs/query", "load imbalance"])
    for n in MEMBER_COUNTS:
        r = results[n]
        table.add_row([n, r["depth"], r["messages_per_query"], r["imbalance"]])
    table.show()
    emit(
        format_series(
            "msgs/query",
            MEMBER_COUNTS,
            [results[n]["messages_per_query"] for n in MEMBER_COUNTS],
        )
    )

    # 64x more entities must NOT cost 64x more messages per query
    ratio = (
        results[MEMBER_COUNTS[-1]]["messages_per_query"]
        / results[MEMBER_COUNTS[0]]["messages_per_query"]
    )
    assert ratio < 4.0


def test_invariants_under_churn():
    """Poisson churn with heartbeat-based crash detection."""
    outcome = {}

    def run():
        sim = Simulator(seed=5)
        tree = build_tree(100, seed=5)
        runtime = MembershipRuntime(
            sim, tree, heartbeat_interval=1.0, recenter_interval=5.0
        )
        runtime.start()
        rng = random.Random(6)
        schedule = ChurnSchedule.poisson(
            rng,
            duration=60.0,
            join_rate=1.0,
            leave_rate=0.5,
            crash_rate=0.3,
            member_ids=tree.member_ids(),
        )
        injector = FailureInjector(sim)
        violations = []

        def check():
            violations.extend(tree.check_invariants())

        def on_join(member_id):
            if member_id not in tree.members:
                runtime.join(Member(member_id, rng.random(), rng.random()))
            check()

        def on_leave(member_id):
            if member_id in tree.members:
                runtime.leave(member_id)
            check()

        def on_crash(member_id):
            runtime.crash(member_id)

        injector.apply(
            schedule, on_join=on_join, on_leave=on_leave, on_crash=on_crash
        )
        sim.run(until=70.0)
        check()
        outcome.update(
            {
                "violations": violations,
                "members": len(tree.members),
                "depth": tree.depth,
                "splits": tree.stats.splits,
                "merges": tree.stats.merges,
                "leader_changes": tree.stats.leader_changes,
                "detected_crashes": runtime.detected_crashes,
                "heartbeats": runtime.heartbeat_messages,
                "protocol_msgs": tree.stats.messages,
            }
        )
        return outcome

    run()

    print_header("E5b — 60s Poisson churn over a 100-entity tree (k=3)")
    table = Table(["metric", "value"])
    for key in (
        "members",
        "depth",
        "splits",
        "merges",
        "leader_changes",
        "detected_crashes",
        "heartbeats",
        "protocol_msgs",
    ):
        table.add_row([key, outcome[key]])
    table.add_row(["invariant violations", len(outcome["violations"])])
    table.show()

    assert outcome["violations"] == []
    assert outcome["detected_crashes"] > 0


def test_cluster_size_distribution():
    """Rule check: every non-singleton layer keeps k <= size <= 3k-1."""
    ks = [2, 3, 4]
    results = {}

    def run():
        for k in ks:
            tree = build_tree(200, k=k, seed=9)
            sizes = tree.cluster_sizes(0)
            results[k] = {
                "min": min(sizes),
                "max": max(sizes),
                "bound": 3 * k - 1,
                "clusters": len(sizes),
            }
        return results

    run()

    print_header("E5c — layer-0 cluster sizes vs k (200 entities)")
    table = Table(["k", "clusters", "min size", "max size", "3k-1 bound"])
    for k in ks:
        r = results[k]
        table.add_row([k, r["clusters"], r["min"], r["max"], r["bound"]])
    table.show()
    for k in ks:
        assert results[k]["min"] >= k
        assert results[k]["max"] <= results[k]["bound"]
