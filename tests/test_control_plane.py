"""Unit and cross-leg tests for the multi-tenant control plane.

Covers the pure pieces (admission policy, token-bucket quotas, churn
events, config/spec round-trips) and the cross-leg contract: the
discrete-event leg and the live control plane make the same admission
decisions on the same script, and tearing a member out of a shared
group leaves the remaining members' results untouched.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import replace

import pytest

from repro.analysis.invariants import audit_federation, run_control_smoke
from repro.cli import main
from repro.control import (
    AdmissionPolicy,
    Control,
    ControlEvent,
    TenantThrottle,
    predicted_imbalance,
    run_control_sim,
)
from repro.control.admission import ADMIT, DEFER, REJECT
from repro.core.system import SystemConfig
from repro.distributed.specs import (
    config_from_spec,
    config_to_spec,
    query_from_spec,
    query_to_spec,
)
from repro.interest.predicates import StreamInterest
from repro.live import (
    Adaptation,
    AdaptationSettings,
    LiveRuntime,
    LiveSettings,
)
from repro.query.spec import QuerySpec
from repro.streams.catalog import stock_catalog
from repro.streams.tuples import StreamTuple
from repro.workloads import churn_workload, sharing_workload


# ----------------------------------------------------------------------
# predicted_imbalance: the §3.2.2 balance constraint, looking forward
# ----------------------------------------------------------------------
def test_predicted_imbalance_best_case_placement():
    loads = {"e0": 3.0, "e1": 1.0}
    # placed on e1 (lightest): peak stays 3, ideal becomes 2.5
    assert predicted_imbalance(loads, 1.0) == pytest.approx(3.0 / 2.5)
    # a heavy arrival makes the lightest entity the new peak
    assert predicted_imbalance(loads, 9.0) == pytest.approx(10.0 / 6.5)


def test_predicted_imbalance_degenerate_inputs():
    assert predicted_imbalance({}, 5.0) == 1.0
    assert predicted_imbalance({"e0": 0.0, "e1": 0.0}, 0.0) == 1.0


# ----------------------------------------------------------------------
# AdmissionPolicy: admit / defer / reject + FIFO drain
# ----------------------------------------------------------------------
def _spec(query_id, lo=100.0, hi=200.0):
    return QuerySpec(
        query_id=query_id,
        interests=(
            StreamInterest.on("exchange-0.trades", price=(lo, hi)),
        ),
    )


def test_admission_disabled_admits_everything():
    policy = AdmissionPolicy(queue_limit=0, imbalance_threshold=1.01)
    assert policy.decide(1e9, {"e0": 1.0}) == ADMIT


def test_admission_defers_then_rejects_when_queue_full():
    policy = AdmissionPolicy(queue_limit=2, imbalance_threshold=1.1)
    loads = {"e0": 10.0, "e1": 1.0}
    assert policy.decide(0.01, loads) == DEFER  # skew, not the arrival
    policy.park(_spec("p0"), now=0.0)
    policy.park(_spec("p1"), now=0.1)
    assert policy.decide(0.01, loads) == REJECT
    assert len(policy.queue) == 2


def test_admission_drain_is_fifo_with_head_of_line_blocking(stock):
    catalog = stock
    policy = AdmissionPolicy(queue_limit=4, imbalance_threshold=1.5)
    heavy = _spec("heavy", 1.0, 999.0)  # wide range => high load
    light = _spec("light", 490.0, 510.0)
    policy.park(heavy, now=0.0)
    policy.park(light, now=0.1)
    # nothing drains while even the head would break the constraint
    skewed = {"e0": heavy.estimated_load(catalog) * 4, "e1": 0.0}
    blocked = policy.drain_admissible(dict(skewed), catalog)
    assert blocked == []
    assert [p.spec.query_id for p in policy.queue] == ["heavy", "light"]
    # with balanced room both drain, head first, loads updated in place
    loads = {"e0": 5.0, "e1": 5.0}
    drained = policy.drain_admissible(loads, catalog)
    assert [p.spec.query_id for p in drained] == ["heavy", "light"]
    assert not policy.queue
    assert sum(loads.values()) > 10.0  # admissions were charged


@pytest.fixture()
def stock():
    from repro.streams.catalog import stock_catalog

    return stock_catalog(exchanges=1, rate=50.0)


# ----------------------------------------------------------------------
# TenantThrottle: weighted-fair token buckets at the intake
# ----------------------------------------------------------------------
def _batch(n):
    return [
        StreamTuple(
            stream_id="s", seq=i, created_at=0.0, values={}, size=1.0
        )
        for i in range(n)
    ]


def test_throttle_sheds_suffix_beyond_quota():
    throttle = TenantThrottle(100.0, {"a": 1.0}, burst_seconds=0.1)
    throttle.bind("f0", "a")
    # capacity = 100 * 0.1 = 10 tokens at t=0
    out = throttle.admit("f0", _batch(25), now=0.0)
    assert len(out) == 10
    assert [t.seq for t in out] == list(range(10))  # prefix, in order
    assert throttle.shed_by_tenant["a"] == 15
    assert throttle.admitted_by_tenant["a"] == 10
    # refill is virtual-time driven but capped at the burst capacity
    assert len(throttle.admit("f0", _batch(25), now=1.0)) == 10


def test_throttle_rates_follow_weights():
    throttle = TenantThrottle(90.0, {"a": 2.0, "b": 1.0}, burst_seconds=1.0)
    throttle.bind("fa", "a")
    throttle.bind("fb", "b")
    granted_a = len(throttle.admit("fa", _batch(100), now=1.0))
    granted_b = len(throttle.admit("fb", _batch(100), now=1.0))
    assert granted_a == 2 * granted_b  # 60 vs 30


def test_throttle_unbound_and_unknown_tenants_pass_through():
    throttle = TenantThrottle(1.0, {"a": 1.0})
    throttle.bind("mystery", "not-configured")  # no weight: no-op
    assert len(throttle.admit("never-bound", _batch(50), now=0.0)) == 50
    assert len(throttle.admit("mystery", _batch(50), now=0.0)) == 50
    assert throttle.total_shed == 0


def test_throttle_unbind_stops_charging_the_fragment():
    throttle = TenantThrottle(10.0, {"a": 1.0}, burst_seconds=0.1)
    throttle.bind("head", "a")
    assert len(throttle.admit("head", _batch(10), now=0.0)) == 1
    throttle.unbind("head")
    assert len(throttle.admit("head", _batch(10), now=0.0)) == 10


def test_throttle_validates_inputs():
    with pytest.raises(ValueError):
        TenantThrottle(0.0, {"a": 1.0})
    with pytest.raises(ValueError):
        TenantThrottle(10.0, {})


# ----------------------------------------------------------------------
# ControlEvent and config/spec round-trips
# ----------------------------------------------------------------------
def test_control_event_validation():
    with pytest.raises(ValueError):
        ControlEvent(at=1.0, action="register")  # spec required
    with pytest.raises(ValueError):
        ControlEvent(at=1.0, action="teardown")  # query_id required
    with pytest.raises(ValueError):
        ControlEvent(at=1.0, action="vanish", query_id="q")
    with pytest.raises(ValueError):
        ControlEvent(at=-0.5, action="teardown", query_id="q")
    assert ControlEvent(at=0.0, action="teardown", query_id="q").subject == "q"


def test_config_spec_round_trip_keeps_control_knobs():
    config = SystemConfig(
        entity_count=3,
        processors_per_entity=2,
        seed=5,
        admission_queue_limit=8,
        admission_imbalance_threshold=1.8,
        tenant_quota_rate=120.0,
        tenant_weights=(("a", 2.0), ("b", 1.0)),
    )
    # through JSON, as the wire protocol ships it: tuples become lists
    wire = json.loads(json.dumps(config_to_spec(config)))
    assert config_from_spec(wire) == config


def test_query_spec_round_trip_keeps_tenant():
    query = QuerySpec(
        query_id="q",
        interests=(
            StreamInterest.on("exchange-0.trades", price=(1.0, 2.0)),
        ),
        tenant="tenant-z",
    )
    wire = json.loads(json.dumps(query_to_spec(query)))
    assert query_from_spec(wire).tenant == "tenant-z"
    # omitted tenant defaults, for specs written before multi-tenancy
    wire.pop("tenant")
    assert query_from_spec(wire).tenant == "default"


def test_system_config_validates_control_knobs():
    with pytest.raises(ValueError):
        SystemConfig(admission_queue_limit=-1)
    with pytest.raises(ValueError):
        SystemConfig(admission_imbalance_threshold=0.9)
    with pytest.raises(ValueError):
        SystemConfig(tenant_quota_rate=0.0)
    with pytest.raises(ValueError):
        SystemConfig(tenant_weights=(("a", -1.0),))
    # list-of-lists input (e.g. parsed JSON) is coerced to tuples
    config = SystemConfig(tenant_weights=[["a", 1], ["b", 2.0]])
    assert config.tenant_weights == (("a", 1.0), ("b", 2.0))


# ----------------------------------------------------------------------
# Cross-leg: the sim leg and the live plane decide identically
# ----------------------------------------------------------------------
def test_sim_and_live_make_the_same_admission_decisions():
    catalog, config, queries, events = churn_workload(
        seed=3, duration=2.0, churn_per_minute=240.0
    )
    __, sim_control = run_control_sim(
        catalog, config, queries, events, duration=2.0
    )
    live = LiveRuntime(
        catalog, config, LiveSettings(duration=2.0, batch_size=8),
        services=[Adaptation(), Control(events=events)],
    )
    live.submit(queries)
    live_control = live.run().control
    for field in (
        "arrivals",
        "departures",
        "registered",
        "rejected",
        "torn_down",
        "stranded_in_queue",
    ):
        assert getattr(sim_control, field) == getattr(
            live_control, field
        ), field


def test_sim_keeps_one_retry_pending_across_departures(monkeypatch):
    """Two departures while an arrival is parked: each retries the
    queue once, and afterwards the queue is probed once per retry
    period — one pending retry, not one more per departure."""
    import repro.control.simulate as simulate

    systems = []

    class Recorded(simulate.FederatedSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            systems.append(self)

    probes = []
    drain = AdmissionPolicy.drain_admissible

    def probe(self, loads, catalog):
        probes.append(systems[0].sim.now)
        return drain(self, loads, catalog)

    monkeypatch.setattr(simulate, "FederatedSystem", Recorded)
    monkeypatch.setattr(AdmissionPolicy, "drain_admissible", probe)
    config = SystemConfig(
        entity_count=2,
        processors_per_entity=2,
        seed=3,
        admission_queue_limit=4,
        admission_imbalance_threshold=1.0,
    )
    base = [_spec(f"b{i}", 100.0 * i, 100.0 * i + 150.0) for i in range(4)]
    # ten base queries' load: no departure makes room for it
    heavy = replace(_spec("parked"), cost_multiplier=10.0)
    events = [
        ControlEvent(at=0.2, action="register", spec=heavy),
        ControlEvent(at=0.4, action="teardown", query_id="b0"),
        ControlEvent(at=0.6, action="teardown", query_id="b1"),
    ]
    retry, duration = 0.25, 3.0
    __, control = run_control_sim(
        stock_catalog(exchanges=1, rate=50.0),
        config,
        base,
        events,
        duration=duration,
        retry_period=retry,
    )
    assert (control.torn_down, control.stranded_in_queue) == (2, 1)
    assert 0.4 in probes and 0.6 in probes
    later = [at for at in probes if at > 0.6]
    assert later
    assert all(b - a >= retry - 1e-9 for a, b in zip(later, later[1:]))
    assert len(later) <= (duration - 0.6) / retry + 1


def test_control_smoke_is_clean():
    assert run_control_smoke(seed=7) == []


# ----------------------------------------------------------------------
# Teardown inside a shared group spares the other members
# ----------------------------------------------------------------------
def test_teardown_of_shared_member_keeps_other_members_results():
    def run(events):
        catalog, config, queries = sharing_workload(
            seed=5, overlap=0.8, query_count=5, rate=60.0
        )
        runtime = LiveRuntime(
            catalog, config, LiveSettings(duration=2.0, batch_size=8),
            services=[Adaptation(), Control(events=events)],
        )
        runtime.submit(queries)
        report = runtime.run()
        return runtime, report

    leaver = "ov1"
    torn, torn_report = run(
        [ControlEvent(at=1.0, action="teardown", query_id=leaver)]
    )
    intact, __ = run([])

    def keys(runtime, query_id):
        return {
            (t.stream_id, t.seq)
            for t in runtime.results.get(query_id, [])
        }

    assert torn_report.control.torn_down == 1
    assert leaver not in torn.planner.allocation_result.assignment
    # every surviving member of the group delivers the identical set
    for query_id in ("ov0", "ov2", "ov3"):
        assert keys(torn, query_id) == keys(intact, query_id), query_id
    # the leaver stopped early: a strict prefix of its full-run set
    assert keys(torn, leaver) < keys(intact, leaver)
    assert (
        audit_federation(torn.planner, dataflow=torn.dataflow) == []
    )


# ----------------------------------------------------------------------
# Quotas follow the wiring: no escape through a dissolved shared group
# ----------------------------------------------------------------------
def test_quota_charges_survivors_of_a_dissolved_shared_group():
    """Tearing a shared group down to one member re-installs the
    survivor as a standalone chain; from then on its head must be
    charged to its tenant's bucket like any other standalone head (it
    used to come back unbound and run unthrottled)."""
    quota, duration, teardown_at = 5.0, 4.0, 1.0
    catalog, config, queries = sharing_workload(overlap=0.8)
    queries = [replace(query, tenant="a") for query in queries]
    config = replace(
        config, tenant_quota_rate=quota, tenant_weights=(("a", 1.0),)
    )

    def build(events):
        runtime = LiveRuntime(
            catalog,
            config,
            LiveSettings(duration=duration, batch_size=8),
            services=[
                # no load-driven migrations: survivors stay where they are
                Adaptation(AdaptationSettings(imbalance_threshold=1e9)),
                Control(events=events),
            ],
        )
        runtime.submit(queries)
        return runtime

    groups = [
        deployment.group.members
        for entity in build([]).planner.entities.values()
        for deployment in entity.shared.values()
    ]
    assert groups, "the overlap workload formed no shared group"
    runtime = build(
        [
            ControlEvent(at=teardown_at, action="teardown", query_id=member)
            for members in groups
            for member in members[1:]
        ]
    )
    runtime.run()

    # every group dissolved; each survivor is a standalone chain whose
    # head is bound (an unbound head would admit the whole batch)
    standalone = [
        hosted
        for entity in runtime.planner.entities.values()
        for hosted in entity.hosted.values()
    ]
    assert {h.spec.query_id for h in standalone} >= {g[0] for g in groups}
    for hosted in standalone:
        assert hosted.shared_group is None
        head = hosted.fragments[0].fragment_id
        assert len(runtime.throttle.admit(head, _batch(500), 1e9)) < 500
    # ... and the bucket really limited them: a torn-down member's count
    # is what its group's survivor had delivered by the teardown, and
    # everything after that fits in tenant a's budget
    after_teardown = sum(
        len(runtime.results[members[0]]) - len(runtime.results[members[1]])
        for members in groups
    )
    assert after_teardown <= quota * (duration - teardown_at) + 2
    assert audit_federation(runtime.planner, dataflow=runtime.dataflow) == []


# ----------------------------------------------------------------------
# Quotas are enforced where the head is hosted
# ----------------------------------------------------------------------
def test_quota_admits_each_head_at_the_processor_hosting_it():
    """Two tenants, one stream, heads on different processors of one
    entity: the delegate admits its own tenant's head and relays the
    run; the other tenant is charged when the relay arrives, by the
    processor that hosts its head."""
    stream = "exchange-0.trades"
    config = SystemConfig(
        entity_count=1,
        processors_per_entity=2,
        seed=5,
        tenant_quota_rate=40.0,
        tenant_weights=(("a", 3.0), ("b", 1.0)),
    )
    runtime = LiveRuntime(
        stock_catalog(exchanges=1, rate=80.0),
        config,
        LiveSettings(duration=3.0, batch_size=8),
        services=[
            Adaptation(AdaptationSettings(imbalance_threshold=1e9)),
            Control(events=[]),
        ],
    )
    # pass-all selections: a query's results are exactly what its head
    # was admitted
    runtime.submit(
        [
            QuerySpec(
                query_id=f"q-{tenant}",
                interests=(StreamInterest.on(stream, price=(0.0, 1e9)),),
                tenant=tenant,
            )
            for tenant in ("a", "b")
        ]
    )
    (entity,) = runtime.planner.entities.values()
    host = dict(entity.wiring.head_routes[stream])  # head fragment -> proc
    assert len(host) == len(set(host.values())) == 2, "heads share a processor"

    admit = runtime.throttle.admit
    admitted_in = []

    def admit_logged(fragment_id, batch, now):
        admitted_in.append(
            (fragment_id, asyncio.current_task().get_name())
        )
        return admit(fragment_id, batch, now)

    runtime.throttle.admit = admit_logged
    report = runtime.run()

    assert set(admitted_in) == {
        (head, f"live:proc/{proc}") for head, proc in host.items()
    }
    throttle = runtime.throttle
    for tenant in ("a", "b"):
        seqs = [tup.seq for tup in runtime.results[f"q-{tenant}"]]
        # charged exactly what ran, shed exactly what did not
        assert throttle.admitted_by_tenant[tenant] == len(seqs) > 0
        assert (
            throttle.admitted_by_tenant[tenant]
            + throttle.shed_by_tenant[tenant]
            == report.tuples_delivered
        )
        # suffix shedding: what survives is still in stream order
        assert seqs == sorted(seqs)
    assert throttle.shed_by_tenant["b"] > throttle.shed_by_tenant["a"] > 0
    assert report.control.shed_by_tenant == throttle.shed_by_tenant
    assert audit_federation(runtime.planner, dataflow=runtime.dataflow) == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_control_command_runs(capsys):
    code = main(
        ["control", "--duration", "1.5", "--churn", "160", "--seed", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "control[" in out or "admission" in out


def test_cli_control_smoke(capsys):
    assert main(["control", "--smoke"]) == 0
    assert "control smoke passed" in capsys.readouterr().out
