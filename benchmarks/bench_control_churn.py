"""E21 — multi-tenant control-plane churn: admission latency + fairness.

Two legs on the live control plane:

**Churn leg** — the churn workload scripts ~1,000 query lifecycle
events (arrivals + departures) per virtual minute against a running
federation.  Every arrival passes cost-model admission control and is
wired in under the migration protocol's pause→drain→resume window;
every departure detaches the same way.  The figures of merit are the
p95 admission latency in *virtual* milliseconds (arrival event to
installed fragments — bounded, or the control plane is queueing work it
cannot place) and a zero-violation structural audit of the post-churn
federation.

**Fairness leg** — three tenants subscribe one stream each with equal
quota weights, one tenant's stream runs at 10x the rate, and the
aggregate quota gives each tenant ~1.05x the base stream rate.  The
weighted-fair token buckets must clamp the spiking tenant at its quota
so the max/min cross-tenant delivered-throughput ratio stays <= 1.2 —
the spike cannot starve the quiet tenants.

The admission bar is 250 virtual ms; the p95 must also keep 10 %
headroom under it (<= 225 ms).
"""

from __future__ import annotations

from repro.analysis.invariants import audit_federation
from repro.bench.reporting import Table, emit, print_header
from repro.control import Control
from repro.live import Adaptation, LiveRuntime, LiveSettings
from repro.workloads import churn_workload

SEED = 7
CHURN_PER_MINUTE = 1000.0
CHURN_DURATION = 3.0
FAIRNESS_DURATION = 3.0
RATE = 60.0
SPIKE_FACTOR = 10.0
P95_BOUND_MS = 250.0  # virtual; the "bounded admission latency" bar
P95_HEADROOM_MS = 0.9 * P95_BOUND_MS
FAIRNESS_BOUND = 1.2  # max/min delivered-throughput ratio across tenants


def run_churn_leg():
    """~1k lifecycle events/min; returns (report, violations, events)."""
    catalog, config, queries, events = churn_workload(
        seed=SEED,
        rate=RATE,
        duration=CHURN_DURATION,
        churn_per_minute=CHURN_PER_MINUTE,
    )
    runtime = LiveRuntime(
        catalog,
        config,
        LiveSettings(duration=CHURN_DURATION, batch_size=8),
        services=[Adaptation(), Control(events=events)],
    )
    runtime.submit(queries)
    report = runtime.run()
    violations = audit_federation(
        runtime.planner, dataflow=runtime.dataflow
    )
    return report, violations, events


def run_fairness_leg():
    """10x single-tenant spike under weighted-fair quotas."""
    catalog, config, queries, __ = churn_workload(
        seed=SEED,
        rate=RATE,
        base_queries=3,
        duration=FAIRNESS_DURATION,
        quota_rate=3 * 1.05 * RATE,
        spike_tenant="tenant-a",
        spike_factor=SPIKE_FACTOR,
    )
    runtime = LiveRuntime(
        catalog,
        config,
        LiveSettings(duration=FAIRNESS_DURATION, batch_size=8),
        # quotas only: no churn riding on this leg
        services=[Adaptation(), Control()],
    )
    runtime.submit(queries)
    return runtime.run()


def test_control_churn():
    legs = {}

    def run():
        legs["churn"] = run_churn_leg()
        legs["fairness"] = run_fairness_leg()
        return legs

    run()

    churn_report, violations, events = legs["churn"]
    control = churn_report.control
    fairness = legs["fairness"].control

    arrivals = sum(1 for e in events if e.action == "register")
    churn_rate = len(events) / CHURN_DURATION * 60.0
    p95_ms = control.p95_admission_latency * 1000.0
    ratio = fairness.fairness_ratio()

    print_header(
        f"E21 — control-plane churn ({len(events)} lifecycle events "
        f"~ {churn_rate:,.0f}/min) + 10x spike fairness"
    )
    table = Table(
        ["leg", "arrivals", "admitted", "p95 adm [ms]", "fairness", "audit"]
    )
    table.add_row(
        [
            "churn",
            control.arrivals,
            control.registered,
            p95_ms,
            "-",
            f"{len(violations)} violations",
        ]
    )
    table.add_row(
        ["fairness", fairness.arrivals, fairness.registered, "-", ratio, "-"]
    )
    table.show()
    emit(
        f"p95 admission {p95_ms:.1f} ms virtual (bound {P95_BOUND_MS:.0f}), "
        f"spike fairness ratio {ratio:.2f} (bound {FAIRNESS_BOUND})"
    )

    # the churn leg must actually churn at ~1k events/min
    assert churn_rate >= 900.0, f"only {churn_rate:.0f} events/min scripted"
    # every arrival accounted for: admitted, rejected, or still queued
    settled = control.registered + control.rejected + control.stranded_in_queue
    assert control.arrivals == arrivals and settled == arrivals
    # bounded admission latency, clean structural audit
    assert p95_ms <= P95_BOUND_MS, f"p95 admission {p95_ms:.1f} ms"
    assert p95_ms <= P95_HEADROOM_MS, (
        f"p95 admission {p95_ms:.1f} ms leaves under 10% headroom"
    )
    assert not violations, [v.render() for v in violations]
    # the spiking tenant is clamped to its quota; quiet tenants unhurt
    assert len(fairness.delivered_by_tenant) == 3
    assert ratio <= FAIRNESS_BOUND, (
        f"fairness ratio {ratio:.2f}: {fairness.delivered_by_tenant}"
    )
    assert fairness.shed_by_tenant.get("tenant-a", 0) > 0, (
        "the 10x spike was never throttled"
    )
