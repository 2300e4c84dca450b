"""Tests for the deterministic chaos harness and failure recovery.

Covers the tentpole guarantees: reproducible fault injection on the
virtual clock (same seed + same script => identical recovery metrics),
every fault kind firing and being handled, §4 stream re-delegation when
a delegate processor dies, dissemination-tree re-parenting and
coordinator repair when an entity dies, and monotone recovery metrics
consistent with the run's drop accounting.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cli import main
from repro.coordination.membership import MembershipRepair
from repro.coordination.tree import CoordinatorTree, Member
from repro.core.system import FederatedSystem, SystemConfig
from repro.dissemination.maintenance import repair_after_crash
from repro.dissemination.tree import DisseminationTree
from repro.interest.predicates import StreamInterest
from repro.live import (
    Chaos,
    ChaosEvent,
    ChaosSettings,
    LiveRuntime,
    LiveSettings,
    RuntimeService,
    VirtualClockLoop,
    format_script,
    parse_script,
    random_script,
)
from repro.live.entity_task import TaskControl
from repro.live.recovery import HeartbeatMonitor
from repro.monitoring.recovery import RecoveryReport
from repro.placement.delegation import DelegationScheme
from repro.query.spec import QuerySpec
from repro.streams.catalog import stock_catalog


def make_catalog(rate=40.0):
    return stock_catalog(exchanges=2, rate=rate)


def make_config(seed=11, entities=4):
    return SystemConfig(
        entity_count=entities, processors_per_entity=2, seed=seed
    )


def filter_queries():
    specs = []
    ranges = [
        (50.0, 400.0),
        (200.0, 700.0),
        (600.0, 990.0),
        (1.0, 150.0),
        (300.0, 900.0),
        (100.0, 500.0),
    ]
    for i, (lo, hi) in enumerate(ranges):
        stream = f"exchange-{i % 2}.trades"
        specs.append(
            QuerySpec(
                query_id=f"q{i}",
                interests=(StreamInterest.on(stream, price=(lo, hi)),),
                client_x=0.1 * i,
                client_y=0.9 - 0.1 * i,
            )
        )
    return specs


def make_runtime(script, *, seed=11, recovery=True, duration=2.0, extra=()):
    runtime = LiveRuntime(
        make_catalog(),
        make_config(seed),
        LiveSettings(duration=duration, batch_size=4),
        services=[Chaos(script, ChaosSettings(recovery=recovery)), *extra],
    )
    runtime.submit(filter_queries())
    return runtime


def delegate_victim(runtime):
    """A (entity, stream, delegate) triple from the planned federation
    so a scripted crash provably strands a delegated stream."""
    for entity_id in sorted(runtime.planner.entities):
        entity = runtime.planner.entities[entity_id]
        for proc_id in sorted(entity.processors):
            streams = entity.delegation.delegated_streams(proc_id)
            if streams and len(entity.processors) > 1:
                return entity_id, streams[0], proc_id
    raise AssertionError("workload left no delegated streams")


# ----------------------------------------------------------------------
# The virtual clock
# ----------------------------------------------------------------------
def test_virtual_clock_starts_at_zero_and_jumps_over_sleeps():
    async def main():
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        await asyncio.sleep(30.0)
        return t0, loop.time()

    import time

    wall0 = time.perf_counter()
    with asyncio.Runner(loop_factory=VirtualClockLoop) as runner:
        t0, t1 = runner.run(main())
    wall = time.perf_counter() - wall0
    assert t0 == 0.0
    assert t1 == pytest.approx(30.0)
    assert wall < 5.0  # 30 virtual seconds cost (almost) no wall time


def test_virtual_clock_preserves_timer_order():
    order = []

    async def sleeper(delay, label):
        await asyncio.sleep(delay)
        order.append(label)

    async def main():
        await asyncio.gather(
            sleeper(0.3, "c"), sleeper(0.1, "a"), sleeper(0.2, "b")
        )

    with asyncio.Runner(loop_factory=VirtualClockLoop) as runner:
        runner.run(main())
    assert order == ["a", "b", "c"]


def test_virtual_clock_rejects_rewind():
    loop = VirtualClockLoop()
    try:
        loop.advance(1.5)
        assert loop.time() == pytest.approx(1.5)
        with pytest.raises(ValueError):
            loop.advance(-0.1)
    finally:
        loop.close()


# ----------------------------------------------------------------------
# Task control
# ----------------------------------------------------------------------
def test_task_control_stall_resume_and_crash():
    control = TaskControl()
    assert not control.crashed and not control.stalled
    control.stall()
    assert control.stalled
    control.resume()
    assert not control.stalled
    control.crash()
    control.stall()  # stalling a crashed task is a no-op
    assert control.crashed and not control.stalled

    async def checkpoint():
        return await control.checkpoint()

    assert asyncio.run(checkpoint()) is True


# ----------------------------------------------------------------------
# Scripts
# ----------------------------------------------------------------------
def test_script_parse_format_roundtrip():
    text = """
    # warm-up, then kill things
    at=0.5 kind=proc_crash target=entity-1/proc-0
    at=0.3 kind=partition target=entity-0 duration=0.2
    at=0.8 kind=latency target=entity-2 duration=0.1 amount=0.02
    """
    events = parse_script(text)
    assert [e.kind for e in events] == ["partition", "proc_crash", "latency"]
    assert events[0].duration == pytest.approx(0.2)
    assert parse_script(format_script(events)) == events


@pytest.mark.parametrize(
    "bad",
    [
        "at=1.0 kind=proc_crash",  # missing target
        "at=1.0 target=x kind=vaporize",  # unknown kind
        "once upon a time",  # not key=value
        "at=1.0 kind=stall target=x wat=1",  # unknown key
        "at=-1.0 kind=stall target=x",  # negative time
    ],
)
def test_script_rejects_malformed_lines(bad):
    with pytest.raises(ValueError):
        parse_script(bad)


def test_random_script_is_seeded_and_sorted():
    entities = ["e0", "e1"]
    procs = ["e0/p0", "e1/p0"]
    a = random_script(5, entities, procs, 4.0, count=8)
    b = random_script(5, entities, procs, 4.0, count=8)
    c = random_script(6, entities, procs, 4.0, count=8)
    assert a == b
    assert a != c
    assert a == sorted(a)
    for event in a:
        assert 0 < event.at < 4.0
        if event.kind == "entity_crash":
            assert event.target in entities
        if event.kind == "proc_crash":
            assert event.target in procs


# ----------------------------------------------------------------------
# Determinism (acceptance criterion)
# ----------------------------------------------------------------------
def test_same_seed_and_script_give_identical_recovery_metrics():
    """Same seed + same event script => identical recovery metrics (and
    identical results) across two runs."""
    script = [
        ChaosEvent(0.4, "proc_crash", "entity-1/proc-0"),
        ChaosEvent(0.7, "entity_crash", "entity-2"),
        ChaosEvent(0.3, "partition", "entity-0", duration=0.2),
        ChaosEvent(0.5, "latency", "entity-3", duration=0.3, amount=0.02),
        ChaosEvent(0.6, "stall", "entity-0", duration=0.15),
    ]
    first = make_runtime(script).run()
    second = make_runtime(script).run()
    assert first.recovery == second.recovery
    assert first.results == second.results
    assert first.results_by_query == second.results_by_query
    assert first.dropped_tuples == second.dropped_tuples


# ----------------------------------------------------------------------
# Every fault kind fires and is handled
# ----------------------------------------------------------------------
def test_all_fault_kinds_fire_and_are_recovered():
    runtime = make_runtime([])
    entity_id, __, victim = delegate_victim(runtime)
    other_entities = sorted(
        e for e in runtime.planner.entities if e != entity_id
    )
    runtime.service(Chaos).script = sorted(
        [
            ChaosEvent(0.5, "proc_crash", victim),
            ChaosEvent(0.8, "entity_crash", other_entities[0]),
            ChaosEvent(0.3, "partition", other_entities[1], duration=0.2),
            ChaosEvent(
                0.4, "latency", other_entities[2], duration=0.3, amount=0.01
            ),
            ChaosEvent(0.6, "stall", entity_id, duration=0.15),
        ]
    )
    report = runtime.run()
    rec = report.recovery

    assert runtime.service(Chaos).controller.applied == 5  # every event was applied
    # both crashes were injected, detected, and repaired
    assert rec.failures_injected == 2
    assert rec.detections == 2
    assert {kind for __, kind, __ in rec.failures} == {
        "proc_crash",
        "entity_crash",
    }
    assert rec.failovers >= 1  # the delegate's streams moved (§4)
    assert rec.coordinator_repairs == 1  # the dead entity left the tree
    assert rec.mean_detection_delay > 0
    assert rec.mean_time_to_recover >= rec.mean_detection_delay
    # the partition actually severed sends; the spike actually delayed
    assert runtime.service(Chaos).policy.failed_sends > 0
    assert runtime.service(Chaos).policy.delayed_sends > 0
    # the stalled gateway resumed and the run still produced results
    assert not runtime.dataflow.gateways[entity_id].control.stalled
    assert report.results > 0
    # summary surfaces the recovery section
    text = "\n".join(report.summary_lines())
    assert "chaos:" in text and "recovery:" in text
    # after repair, the surviving federation satisfies every structural
    # invariant (the runtime audited it at the end of the run)
    assert rec.audit_violations == ()
    assert "invariant audit: 0 violation(s)" in text


def test_killing_a_streams_only_delegate_redelegates_it():
    runtime = make_runtime([])
    entity_id, stream_id, victim = delegate_victim(runtime)
    entity = runtime.planner.entities[entity_id]
    runtime.service(Chaos).script = [ChaosEvent(0.5, "proc_crash", victim)]
    report = runtime.run()

    new_delegate = entity.delegation.delegate_of(stream_id)
    assert new_delegate is not None
    assert new_delegate != victim
    assert victim not in entity.delegation.processor_ids
    assert report.recovery.failovers >= 1
    assert report.recovery.streams_unrecovered == 0
    assert report.recovery.tuples_replayed > 0  # buffered intake re-fed
    assert report.results > 0
    # §4 delegation totality holds again after the failover, along with
    # the other structural invariants (audit re-run here explicitly)
    from repro.analysis.invariants import audit_federation

    assert (
        audit_federation(runtime.planner, dataflow=runtime.dataflow)
        == []
    )


def test_killing_every_processor_of_an_entity_strands_its_streams():
    runtime = make_runtime([])
    entity_id, __, __ = delegate_victim(runtime)
    procs = sorted(runtime.planner.entities[entity_id].processors)
    runtime.service(Chaos).script = [
        ChaosEvent(0.4 + 0.2 * i, "proc_crash", proc)
        for i, proc in enumerate(procs)
    ]
    report = runtime.run()
    assert report.recovery.failures_injected == len(procs)
    assert report.recovery.streams_unrecovered > 0
    assert not runtime.planner.entities[entity_id].delegation.processor_ids


# ----------------------------------------------------------------------
# Metrics: monotone and consistent with drops
# ----------------------------------------------------------------------
class Sampler(RuntimeService):
    """Snapshots the recovery counters during the run so monotonicity
    is checked on live data, not just at the end."""

    def __init__(self):
        self.samples = []

    def attach(self, runtime):
        self.recovery = runtime.service(Chaos).report

    def snapshot(self):
        """The monotone counters (every ``int`` field) at this instant."""
        return {k: v for k, v in vars(self.recovery).items() if type(v) is int}

    def start(self, flow):
        async def sample():
            while True:
                self.samples.append(self.snapshot())
                await asyncio.sleep(0.05)

        return [asyncio.create_task(sample(), name="chaos:sampler")]


def test_recovery_metrics_are_monotone_and_consistent_with_drops():
    script = [
        ChaosEvent(0.4, "proc_crash", "entity-1/proc-0"),
        ChaosEvent(0.7, "entity_crash", "entity-2"),
    ]
    sampler = Sampler()
    runtime = make_runtime(script, extra=[sampler])
    report = runtime.run()
    baseline = make_runtime(script, recovery=False).run()

    # every counter only ever grows during the run
    assert len(sampler.samples) > 2
    assert len(sampler.samples[0]) == 9
    for before, after in zip(sampler.samples, sampler.samples[1:]):
        for key, value in before.items():
            assert after[key] >= value, key
    final = sampler.snapshot()
    last = sampler.samples[-1]
    for key, value in last.items():
        assert final[key] >= value, key

    # consistency with drop accounting: the baseline repairs nothing,
    # so it must lose at least as much as the recovering run
    assert baseline.recovery.failovers == 0
    assert baseline.recovery.tuples_replayed == 0
    assert baseline.dropped_tuples > report.dropped_tuples
    assert report.results > baseline.results
    # detections never exceed injected failures, repairs never exceed
    # detections
    for r in (report.recovery, baseline.recovery):
        assert r.detections <= r.failures_injected
        assert r.coordinator_repairs <= r.detections
        assert r.tuples_lost >= 0 and r.tuples_replayed >= 0
        # crashed entities are excluded, so even the non-recovering
        # baseline leaves the surviving structures invariant-clean
        assert r.audit_violations == ()


# ----------------------------------------------------------------------
# Recovery primitives
# ----------------------------------------------------------------------
def test_membership_repair_heals_tree_and_counts():
    tree = CoordinatorTree(k=2)
    for i in range(12):
        tree.join(Member(f"m{i}", i * 0.1, 0.5))
    repairer = MembershipRepair(tree)
    victim = tree.member_ids()[3]
    assert repairer.repair(victim)
    assert victim not in tree.members
    assert tree.check_invariants() == []
    assert repairer.repairs == 1
    assert repairer.messages > 0
    # unknown members are not "repaired"
    assert not repairer.repair("nobody")
    assert repairer.repairs == 1


def test_delegation_fail_processor_redelegates_heaviest_first():
    scheme = DelegationScheme(processor_ids=["p0", "p1", "p2"])
    assert scheme.assign("s-heavy", 100.0) == "p0"
    assert scheme.assign("s-light", 1.0) == "p1"
    assert scheme.assign("s-mid", 10.0) == "p2"
    moved = scheme.fail_processor("p0")
    assert moved == {"s-heavy": "p1"}
    assert scheme.delegate_of("s-heavy") == "p1"
    assert "p0" not in scheme.processor_ids
    assert scheme.fail_processor("p0") == {}  # already gone
    # last processor standing: streams are stranded, not reassigned
    scheme.fail_processor("p1")
    assert scheme.fail_processor("p2") == {}
    assert scheme.delegate_of("s-mid") is None
    assert scheme.stream_count == 0


def test_repair_after_crash_reparents_orphans():
    tree = DisseminationTree("s")
    positions = {
        "root-child": (0.1, 0.1),
        "mid": (0.5, 0.5),
        "leaf-a": (0.6, 0.6),
        "leaf-b": (0.7, 0.4),
    }
    tree.attach("root-child")
    tree.attach("mid", parent="root-child")
    tree.attach("leaf-a", parent="mid")
    tree.attach("leaf-b", parent="mid")
    orphans = repair_after_crash(tree, "mid", (0.0, 0.0), positions)
    assert orphans == 2
    assert not tree.contains("mid")
    for leaf in ("leaf-a", "leaf-b"):
        assert tree.contains(leaf)
        assert tree.parent_of(leaf) != "mid"
    # a node outside the tree is a no-op
    assert repair_after_crash(tree, "ghost", (0.0, 0.0), positions) == 0


def test_heartbeat_monitor_detects_silence_exactly_once():
    crashed = {"n1": False}
    failures = []
    metrics = RecoveryReport()

    async def on_failure(node_id):
        failures.append(node_id)

    async def main():
        monitor = HeartbeatMonitor(
            ["n0", "n1"],
            lambda n: not crashed.get(n, False),
            on_failure,
            metrics,
            interval=0.1,
            detection_multiplier=3.0,
        )
        task = asyncio.create_task(monitor.run())
        await asyncio.sleep(0.35)
        crashed["n1"] = True
        await asyncio.sleep(1.0)
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass

    with asyncio.Runner(loop_factory=VirtualClockLoop) as runner:
        runner.run(main())
    assert failures == ["n1"]  # detected once, never re-detected
    assert metrics.detections == 1
    assert metrics.heartbeats_sent > 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_chaos_command_runs(capsys):
    code = main(
        [
            "chaos",
            "--entities",
            "3",
            "--queries",
            "8",
            "--duration",
            "1.0",
            "--seed",
            "3",
            "--faults",
            "4",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fault script:" in out
    assert "chaos:" in out
    assert "recovery:" in out


def test_cli_chaos_exits_nonzero_on_a_dirty_post_recovery_audit(
    monkeypatch, capsys
):
    """A violation among the survivors after recovery ran is printed
    *and* fails the command; with ``--no-recovery`` dangling structure
    around the dead is the expected baseline and the exit stays 0."""
    from repro.analysis.invariants import InvariantViolation
    from repro.live import chaos

    monkeypatch.setattr(
        chaos,
        "audit_federation",
        lambda *args, **kwargs: [
            InvariantViolation("delegation", "entity-0", "planted by the test")
        ],
    )
    args = ["chaos", "--entities", "3", "--queries", "8"]
    args += ["--duration", "1.0", "--seed", "3", "--faults", "4"]
    assert main(args) == 1
    assert "invariant audit: 1 violation(s)" in capsys.readouterr().out
    assert main(args + ["--no-recovery"]) == 0


def test_cli_chaos_accepts_script_file(tmp_path, capsys):
    script = tmp_path / "faults.txt"
    script.write_text(
        "# one crash\nat=0.4 kind=proc_crash target=entity-0/proc-0\n"
    )
    code = main(
        [
            "chaos",
            "--entities",
            "3",
            "--queries",
            "8",
            "--duration",
            "1.0",
            "--script",
            str(script),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "1 scripted faults" in out
    assert "kind=proc_crash" in out


def test_cli_chaos_rejects_bad_script(tmp_path, capsys):
    script = tmp_path / "faults.txt"
    script.write_text("at=1.0 kind=vaporize target=x\n")
    code = main(["chaos", "--script", str(script)])
    assert code == 2
    assert "cannot load chaos script" in capsys.readouterr().err


# ----------------------------------------------------------------------
# One failure story: the same crash makes the same plan on either leg
# ----------------------------------------------------------------------
@pytest.mark.parametrize("plan", ["plain", "partitioned", "shared"])
def test_same_crash_makes_the_same_plan_on_both_legs(plan):
    """A crash is one planner edit both legs interpret: the simulator
    applies it when the node dies, the live runtime when its heartbeat
    detects the silence.  After a processor crash and then an entity
    crash, the two planners agree on every placement decision."""
    from tests.test_differential import PLANS, crash_victim

    catalog, config, queries = PLANS[plan](7)
    sim = FederatedSystem(catalog, config)
    sim.submit(queries)
    proc, __ = crash_victim(sim)
    entity = max(e for e in sim.entities if not proc.startswith(f"{e}/"))
    sim.sim.schedule_at(0.4, lambda: sim.edit(failed=[proc]))
    sim.sim.schedule_at(0.8, lambda: sim.edit(failed=[entity]))
    sim.run(1.5)

    runtime = LiveRuntime(
        catalog,
        config,
        LiveSettings(duration=1.5, batch_size=4),
        services=[
            Chaos(
                [
                    ChaosEvent(0.4, "proc_crash", proc),
                    ChaosEvent(0.8, "entity_crash", entity),
                ]
            )
        ],
    )
    runtime.submit(queries)
    report = runtime.run()
    assert report.recovery.detections == 2
    assert report.recovery.audit_violations == ()

    def plan_of(planner):
        return (
            planner.allocation_result.assignment,
            {
                (entity_id, query_id): hosted.chain_procs
                for entity_id, e in planner.entities.items()
                for query_id, hosted in e.hosted.items()
            },
            {
                entity_id: {
                    s: e.delegation.delegate_of(s) for s in catalog.stream_ids()
                }
                for entity_id, e in planner.entities.items()
            },
            planner.portal.entity_ids,
        )

    assert entity not in runtime.planner.entities
    assert plan_of(runtime.planner) == plan_of(sim)
