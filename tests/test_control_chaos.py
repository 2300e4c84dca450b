"""Chaos under churn: lifecycle events interleaved with crashes.

The control plane and the chaos harness share one virtual timeline, so
a seeded script of query registrations/teardowns can be interleaved
deterministically with processor and entity crashes.  The contract:
the run completes, the surviving federation passes the structural
audit with zero violations, and queries hosted away from every crash
deliver the *identical* result set as a fault-free run of the same
churn script (selection results are placement-independent, so crashes
elsewhere must not perturb survivors).
"""

from __future__ import annotations

import pytest

from repro.analysis.invariants import audit_federation
from repro.control import Control
from repro.live import (
    Adaptation,
    Chaos,
    ChaosEvent,
    ChaosSettings,
    LiveRuntime,
    LiveSettings,
)
from repro.workloads import churn_workload, parity_workload

SEED = 11
DURATION = 2.5
CHURN_PER_MINUTE = 240.0
RATE = 60.0


def build_runtime(script):
    catalog, config, queries, events = churn_workload(
        seed=SEED,
        rate=RATE,
        duration=DURATION,
        churn_per_minute=CHURN_PER_MINUTE,
    )
    runtime = LiveRuntime(
        catalog,
        config,
        LiveSettings(duration=DURATION, batch_size=8),
        services=[
            Chaos(script, ChaosSettings(recovery=True)),
            Adaptation(),
            Control(events=events),
        ],
    )
    runtime.submit(queries)
    return runtime, events


def crash_script(runtime):
    """One processor crash and one full entity crash, derived from the
    planned federation so the targets provably exist."""
    entities = sorted(runtime.planner.entities)
    victim_entity = entities[-1]
    other = entities[0]
    victim_proc = sorted(
        runtime.planner.entities[other].processors
    )[0]
    script = [
        ChaosEvent(0.9, "proc_crash", victim_proc),
        ChaosEvent(1.4, "entity_crash", victim_entity),
    ]
    return script, {victim_entity, other}


def query_keys(runtime):
    """Per-query result key sets."""
    keys = {}
    for query_id, tups in runtime.results.items():
        keys[query_id] = {(t.stream_id, t.seq) for t in tups}
    return keys


@pytest.fixture(scope="module")
def churn_under_chaos():
    baseline, events = build_runtime([])
    script, crashed = crash_script(baseline)
    baseline_report = baseline.run()
    chaos, __ = build_runtime(script)
    chaos_report = chaos.run()
    return baseline, baseline_report, chaos, chaos_report, crashed, events


def test_chaos_churn_run_completes_and_audits_clean(churn_under_chaos):
    """Crashes mid-churn: every lifecycle event is still accounted for
    and the surviving structures satisfy every invariant."""
    __, __, chaos, report, crashed, events = churn_under_chaos
    arrivals = sum(1 for e in events if e.action == "register")
    control = report.control
    assert control.arrivals == arrivals
    settled = control.registered + control.rejected + control.stranded_in_queue
    assert settled == arrivals
    assert control.departures == len(events) - arrivals
    assert report.recovery.failures_injected == 2
    # the runtime's own end-of-run audit (crashed entities excluded)
    assert report.recovery.audit_violations == ()
    # ... and re-run explicitly on the post-churn, post-crash state
    assert (
        audit_federation(
            chaos.planner,
            dataflow=chaos.dataflow,
            exclude=tuple(sorted(crashed)),
        )
        == []
    )


def test_both_controllers_are_reachable_and_distinct(churn_under_chaos):
    """Each service owns its controller: the fault script's and the
    adaptation loop's no longer share one attribute name (the chaos
    controller used to be clobbered, its ``applied`` count unreachable),
    and the migrator the control plane worked through is the one the
    run's adaptation section reports on."""
    __, __, runtime, report, __, __ = churn_under_chaos
    chaos = runtime.service(Chaos)
    adaptation = runtime.service(Adaptation)
    control = runtime.service(Control)
    assert chaos.controller is not adaptation.controller
    assert chaos.controller.applied == len(chaos.script) == 2
    assert control.plane.migrator is adaptation.migrator
    assert adaptation.migrator.metrics is report.adaptation
    assert report.control is control.report
    assert report.control.quiesce_windows > 0


def test_control_without_adaptation_fails_at_construction():
    catalog, config, __, events = churn_workload(
        seed=SEED, rate=RATE, duration=DURATION, churn_per_minute=60.0
    )
    for services in ([Control(events=events)], [Control(), Adaptation()]):
        with pytest.raises(ValueError, match="Adaptation service"):
            LiveRuntime(catalog, config, services=services)


def test_chaos_churn_survivors_keep_result_parity(churn_under_chaos):
    """Queries hosted away from every crash deliver the identical
    result set as the fault-free run of the same churn script.  Recovery
    re-homes a crashed entity's queries onto survivors, so "away from
    every crash" is read off the planned, pre-crash assignment (and the
    final one, for a query moved onto a crash target before it hit)."""
    baseline, __, chaos, __, crashed, __ = churn_under_chaos
    planned = build_runtime([])[0].planner.allocation_result.assignment
    assignment = chaos.planner.allocation_result.assignment
    base_keys = query_keys(baseline)
    chaos_keys = query_keys(chaos)
    survivors = [
        query_id
        for query_id, entity_id in sorted(planned.items())
        if entity_id not in crashed
        and assignment.get(query_id) not in crashed
        and not query_id.startswith("churn")
    ]
    assert survivors, "every long-lived query landed on a crash target"
    for query_id in survivors:
        assert chaos_keys.get(query_id, set()) == base_keys.get(
            query_id, set()
        ), query_id
    # the crashes actually hurt: the chaos run lost work somewhere and
    # made up none (replay is at-least-once, so distinct result keys are
    # compared, not counts)
    assert {
        (query_id, key) for query_id, keys in chaos_keys.items() for key in keys
    } < {
        (query_id, key) for query_id, keys in base_keys.items() for key in keys
    }


def test_chaos_churn_is_deterministic():
    """Same seed, same churn script, same fault script: identical
    delivered results and identical recovery accounting."""
    first, __ = build_runtime(
        [ChaosEvent(1.0, "proc_crash", "entity-0/proc-0")]
    )
    first_report = first.run()
    second, __ = build_runtime(
        [ChaosEvent(1.0, "proc_crash", "entity-0/proc-0")]
    )
    second_report = second.run()
    assert query_keys(first) == query_keys(second)
    assert first_report.recovery == second_report.recovery
    assert first_report.control.registered == second_report.control.registered
    assert first_report.control.torn_down == second_report.control.torn_down


def test_crashed_entity_leaves_the_plan_and_its_queries_resume():
    """A detected entity crash is one planner edit: the planner stops
    listing the entity, so the adaptation loop never moves a query onto
    it, and every query it hosted re-arrives elsewhere and delivers
    results created after the recovery."""
    from tests.test_differential import MOVE_EAGERLY, SETTINGS

    victim = "entity-1"
    catalog, config, queries = parity_workload(1)
    runtime = LiveRuntime(
        catalog,
        config,
        SETTINGS,
        services=[
            Chaos([ChaosEvent(0.2, "entity_crash", victim)]),
            Adaptation(MOVE_EAGERLY),
        ],
    )
    runtime.submit(queries)
    stranded = sorted(runtime.planner.entities[victim].hosted)
    assert stranded
    moves = []
    migrate = runtime.planner.migrate

    def recording(batch):
        moves.extend(batch)
        return migrate(batch)

    runtime.planner.migrate = recording
    report = runtime.run()
    recovered = 0.2 + report.recovery.mean_time_to_recover
    assert report.recovery.detections == 1
    assert victim not in runtime.planner.entities
    assert victim not in runtime.planner.portal.entity_ids
    assert moves, "the eager loop moved nothing"
    assert [move for move in moves if move[2] == victim] == []
    for query_id in stranded:
        assert runtime.planner.allocation_result.assignment[query_id] != victim
        assert any(
            tup.created_at > recovered for tup in runtime.results[query_id]
        ), query_id
    assert report.recovery.audit_violations == ()
