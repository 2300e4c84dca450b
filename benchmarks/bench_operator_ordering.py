"""E10 — adaptive operator ordering via the Adaptation Module (§4.2).

Paper claim: the AM "adaptively chooses the immediate downstream
processor for an output tuple" based on collected statistics.  Two
commutative filters sit on separate processors; their selectivities
*swap* mid-run (the filter that dropped 90% starts passing 90%).  A
static order keeps routing tuples through the stale choice; the AM
re-orders and saves CPU and latency.
"""

from __future__ import annotations

from repro.bench.reporting import Table, emit, print_header
from repro.engine.executor import LocalEngine
from repro.engine.plan import QueryPlan
from repro.ordering.adaptation_module import AdaptationModule, OrderingNetwork
from repro.ordering.policies import AdaptivePolicy, RandomPolicy, StaticPolicy
from repro.simulation.network import Network, NetworkNode
from repro.simulation.processor import SimProcessor
from repro.simulation.simulator import Simulator
from repro.streams.tuples import StreamTuple
from repro.workloads.drifting import DriftingFilter, step_drift

DURATION = 40.0
SWITCH_AT = 20.0
RATE = 50.0  # tuples/second
COST = 2e-3  # seconds per tuple per filter

POLICIES = {
    "static": StaticPolicy,
    "random": RandomPolicy,
    "adaptive (AM)": AdaptivePolicy,
}


def run_policy(policy_cls, refresh_interval=1.0, seed=81):
    sim = Simulator(seed=seed)
    net = Network(sim)
    for node in ("entry", "pa", "pb"):
        net.add_node(NetworkNode(node, tier="lan", group="e"))
    am = AdaptationModule(
        sim, policy_cls(), refresh_interval=refresh_interval
    )
    ordering = OrderingNetwork(sim, net, am, "entry")
    # filter A: selective early, permissive late; filter B: the reverse
    drifts = {
        "a": step_drift(0.1, 0.9, SWITCH_AT),
        "b": step_drift(0.9, 0.1, SWITCH_AT),
    }
    for name, node in (("a", "pa"), ("b", "pb")):
        op = DriftingFilter(f"{name}.f", drifts[name], cost_per_tuple=COST)
        plan = QueryPlan(f"frag_{name}", ["s"], [op])
        engine = LocalEngine(sim, SimProcessor(sim, node))
        ordering.add_station(plan.as_single_fragment(), engine, node)
    am.start()

    count = int(DURATION * RATE)
    for i in range(count):
        t = i / RATE
        tup = StreamTuple(
            stream_id="s",
            seq=i,
            created_at=t,
            values={"x": float(i)},
            size=64.0,
        )
        sim.schedule_at(t, lambda tup=tup: ordering.ingest(tup))
    sim.run(until=DURATION + 10.0)

    cpu = sum(
        s.engine.processor.stats.total_service_time for s in ordering._stations
    )
    return {
        "tuples_in": ordering.tuples_in,
        "survivors": ordering.tuples_out,
        "cpu_seconds": cpu,
        "mean_latency_ms": ordering.mean_latency * 1e3,
        "probes": am.probe_messages,
    }


def test_ordering_adaptation():
    results = {}

    def run():
        for name, policy_cls in POLICIES.items():
            results[name] = run_policy(policy_cls)
        return results

    run()

    print_header(
        "E10 — operator ordering under selectivity drift "
        f"(swap at t={SWITCH_AT:.0f}s of {DURATION:.0f}s)"
    )
    table = Table(
        ["policy", "survivors", "CPU s", "mean latency ms", "probe msgs"]
    )
    for name in POLICIES:
        r = results[name]
        table.add_row(
            [
                name,
                r["survivors"],
                r["cpu_seconds"],
                r["mean_latency_ms"],
                r["probes"],
            ]
        )
    table.show()

    static = results["static"]
    adaptive = results["adaptive (AM)"]
    emit(
        f"AM saves {100 * (1 - adaptive['cpu_seconds'] / static['cpu_seconds']):.0f}% "
        "CPU vs the static order"
    )
    assert adaptive["cpu_seconds"] < static["cpu_seconds"]
    assert adaptive["mean_latency_ms"] <= static["mean_latency_ms"] * 1.5
    # both orders produce the same logical result set
    assert adaptive["survivors"] == static["survivors"]


def test_staleness_ablation():
    """Fresher statistics adapt faster after the drift switch."""
    intervals = [0.5, 2.0, 10.0]
    results = {}

    def run():
        for interval in intervals:
            results[interval] = run_policy(
                AdaptivePolicy, refresh_interval=interval
            )
        return results

    run()

    print_header("E10b — ablation: AM statistics refresh interval")
    table = Table(["refresh s", "CPU s", "mean latency ms", "probe msgs"])
    for interval in intervals:
        r = results[interval]
        table.add_row(
            [interval, r["cpu_seconds"], r["mean_latency_ms"], r["probes"]]
        )
    table.show()
    assert results[0.5]["probes"] > results[10.0]["probes"]
    assert results[0.5]["cpu_seconds"] <= results[10.0]["cpu_seconds"] * 1.2
