"""Tests for the live asyncio federation runtime.

Covers the tentpole guarantees: backpressure under a slow consumer,
retry/backoff on injected send failures (drops as metrics, not
exceptions), the delegate's one relay per processor, and reporting
through the existing monitoring report types.  That the live runtime
returns the simulator's results is ``test_differential.py``'s claim;
the parity runs here hold other settings to its oracle.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro.analysis.invariants import audit_federation
from repro.cli import main
from repro.core.system import SystemConfig
from repro.interest.predicates import StreamInterest
from repro.live import (
    LiveRuntime,
    LiveSettings,
    RuntimeService,
    TransportChaos,
)
from repro.live.entity_task import RELAY, LiveGateway
from repro.monitoring.reports import LoadReport, SubtreeLoad
from repro.query.spec import QuerySpec
from repro.streams.catalog import stock_catalog
from tests.test_differential import assert_matches_reference


def make_catalog(rate=40.0):
    return stock_catalog(exchanges=2, rate=rate)


def make_config(seed=11, entities=4):
    return SystemConfig(
        entity_count=entities, processors_per_entity=2, seed=seed
    )


def filter_queries():
    """Stateless selection queries: results are timestamp-independent,
    so simulator and live runs must produce the *same tuples*."""
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


class FailSends(TransportChaos, RuntimeService):
    """Fails the send attempts ``rule(channel_name, attempt)`` picks."""

    def __init__(self, rule):
        self.fail = rule

    def start(self, flow):
        flow.transport.chaos = self
        return []


def run_live(
    settings, *, seed=11, entities=4, queries=None, rate=40.0, services=()
):
    runtime = LiveRuntime(
        make_catalog(rate),
        make_config(seed, entities),
        settings,
        services=services,
    )
    runtime.submit(queries or filter_queries())
    return runtime, runtime.run()


# ----------------------------------------------------------------------
# Basic execution
# ----------------------------------------------------------------------
def test_live_run_completes_and_reports():
    runtime, report = run_live(LiveSettings(duration=2.0, batch_size=4))
    assert report.tuples_ingested > 0
    assert report.tuples_delivered > 0
    assert report.results > 0
    assert report.dropped_tuples == 0
    assert report.wall_seconds > 0
    assert report.ingest_throughput > 0
    # every inbox drained at quiescence
    assert all(d == 0 for d in report.entity_queue_depth.values())
    # per-query results were collected
    assert sum(report.results_by_query.values()) == report.results
    assert sum(len(t) for t in runtime.results.values()) == report.results


def test_live_runtime_is_single_use():
    runtime, __ = run_live(LiveSettings(duration=0.5))
    with pytest.raises(RuntimeError):
        runtime.run()


def test_live_run_requires_submitted_workload():
    runtime = LiveRuntime(make_catalog(), make_config())
    with pytest.raises(RuntimeError):
        runtime.run()


def test_time_scaled_run_paces_wall_clock():
    __, report = run_live(
        LiveSettings(duration=0.3, time_scale=0.05, batch_size=4)
    )
    # 0.3 virtual seconds at 0.05 wall/virtual >= ~15ms of pacing
    assert report.wall_seconds >= 0.010
    assert report.results >= 0


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
def test_backpressure_bounds_queues_under_slow_consumer(monkeypatch):
    """A slow gateway must block its producers at the channel bound,
    not grow an unbounded queue — and nothing may be dropped."""
    handle_batch = LiveGateway._handle_batch

    async def slow_handle_batch(self, batch):
        await asyncio.sleep(0.0003 * len(batch))
        await handle_batch(self, batch)

    monkeypatch.setattr(LiveGateway, "_handle_batch", slow_handle_batch)
    __, report = run_live(
        LiveSettings(
            duration=1.5,
            batch_size=1,
            channel_capacity=3,
            send_timeout=2.0,
        )
    )
    assert report.blocked_puts > 0  # producers actually hit the bound
    assert report.dropped_tuples == 0  # backpressure, not loss
    assert all(
        hw <= 3 for hw in report.entity_queue_high_water.values()
    )
    assert report.results > 0


# ----------------------------------------------------------------------
# Retry / drop on injected failures
# ----------------------------------------------------------------------
def test_injected_transient_failures_are_retried():
    failed = []

    def fail_first_attempt(name, attempt):
        if name.startswith("inbox/") and attempt == 0:
            failed.append(name)
            return True
        return False

    __, report = run_live(
        LiveSettings(duration=1.0, backoff_base=0.0001, backoff_max=0.001),
        services=[FailSends(fail_first_attempt)],
    )
    assert failed  # the injector actually fired
    assert report.retries > 0
    assert report.dropped_tuples == 0  # transient failures recover
    assert report.results > 0


def test_permanent_failures_surface_as_drops_not_exceptions():
    def black_hole(name, attempt):
        return name == f"inbox/{victim}"

    runtime = LiveRuntime(
        make_catalog(),
        make_config(),
        LiveSettings(
            duration=1.0,
            max_retries=1,
            backoff_base=0.0001,
            backoff_max=0.001,
            send_timeout=0.01,
        ),
        services=[FailSends(black_hole)],
    )
    runtime.submit(filter_queries())
    victim = runtime.planner.allocation_result.assignment["q0"]
    report = runtime.run()
    assert report.dropped_tuples > 0
    assert report.dropped_batches > 0
    assert report.retries > 0


# ----------------------------------------------------------------------
# Parity with the simulator beyond the matrix's settings
# ----------------------------------------------------------------------
def test_live_results_match_simulator_on_seeded_workload():
    """Twice the matrix's run length: the live runtime still produces
    exactly the result tuples the simulator produces."""
    seed, duration = 11, 3.0
    runtime, report = run_live(
        LiveSettings(duration=duration, batch_size=4), seed=seed
    )
    assert report.dropped_tuples == 0
    assert report.negative_latency_samples == 0
    assert_matches_reference("plain", seed, runtime.results, duration=duration)


def test_parity_holds_across_seeds():
    """At the default batch size, which the matrix does not run."""
    for seed in (3, 29):
        runtime, report = run_live(LiveSettings(duration=1.5), seed=seed)
        assert report.negative_latency_samples == 0
        assert_matches_reference("plain", seed, runtime.results, duration=1.5)


# ----------------------------------------------------------------------
# The delegate relays a stream once per processor, not once per head
# ----------------------------------------------------------------------
def spread_queries():
    """Twelve selections, six per stream: on two entities every stream
    has two heads on each processor of the entity it is delivered to
    (asserted where it matters)."""
    return [
        QuerySpec(
            query_id=f"q{i}",
            interests=(
                StreamInterest.on(
                    f"exchange-{i % 2}.trades",
                    price=(40.0 + 60.0 * i, 440.0 + 60.0 * i),
                ),
            ),
            client_x=0.1 * (i % 8),
            client_y=0.9 - 0.1 * (i % 8),
        )
        for i in range(12)
    ]


class IntakeLog(RuntimeService):
    """Logs every raw-intake item a processor takes off its inbox, as
    ``(proc, target, stream, seq)``; ``on_relay`` is called once, when
    the first relayed batch is about to be handed to its processor."""

    def __init__(self, on_relay=None):
        self.items = []
        self.on_relay = on_relay

    def start(self, flow):
        for (__, proc_id), task in flow.processors.items():
            task.inbox.get = self._logged(task.inbox.get, proc_id, flow)
        return []

    def _logged(self, get, proc_id, flow):
        async def logged_get():
            batch = await get()
            intake = [
                (proc_id, target, tup.stream_id, tup.seq)
                for target, tup in batch
                if target is None or target is RELAY
            ]
            self.items += intake
            if self.on_relay and any(item[1] is RELAY for item in intake):
                on_relay, self.on_relay = self.on_relay, None
                on_relay(flow, proc_id)
            return batch

        return logged_get


def spread_config(procs=3):
    return SystemConfig(entity_count=2, processors_per_entity=procs, seed=5)


def spread_runtime(settings, *, procs=3, services=()):
    runtime = LiveRuntime(
        make_catalog(), spread_config(procs), settings, services=services
    )
    runtime.submit(spread_queries())
    return runtime


def result_keys(runtime):
    return Counter(
        (query_id, tup.stream_id, tup.seq)
        for query_id, tups in runtime.results.items()
        for tup in tups
    )


def test_relay_reaches_each_head_hosting_processor_exactly_once():
    log = IntakeLog()
    runtime = spread_runtime(
        LiveSettings(duration=1.0, batch_size=8), services=[log]
    )
    report = runtime.run()
    delivered = 0
    for entity in runtime.planner.entities.values():
        for stream_id, routes in entity.wiring.head_routes.items():
            hosts = {proc for __, proc in routes}
            assert len(routes) > len(hosts) >= 2, "fixture lost its spread"
            delegate = entity.delegation.delegate_of(stream_id)
            taken = Counter(
                (proc, seq)
                for proc, __, stream, seq in log.items
                if stream == stream_id and proc in entity.processors
            )
            seqs = {seq for __, seq in taken}
            delivered += len(seqs)
            # the delegate and every processor hosting a head took each
            # delivered tuple in once; nobody took one in twice
            assert taken == Counter(
                (proc, seq)
                for proc in sorted(hosts | {delegate})
                for seq in sorted(seqs)
            )
            # straight from the gateway at the delegate, relayed elsewhere
            assert all(
                (target is None) == (proc == delegate)
                for proc, target, stream, __ in log.items
                if stream == stream_id and proc in entity.processors
            )
    assert delivered == report.tuples_delivered > 0
    # Every channel hop of this fixed federation: tree edges, gateway to
    # delegate, one relay per other processor, results.  A return to one
    # copy per head reads 533.
    assert report.tuples_sent == 409
    assert report.mean_batch_size == report.tuples_sent / report.batches_sent


def test_relayed_run_in_flight_across_a_delegate_failover_is_not_relayed_again():
    """The delegate is re-pointed at the very processor that holds a
    relayed batch it has not executed yet: that batch must feed its
    heads only, and what the gateway sends the new delegate from then
    on must reach the old one's heads by relay — every result once."""
    repointed = []

    def fail_over(flow, proc_id):
        entity_id = flow.entity_of_processor(proc_id)
        scheme = runtime.planner.entities[entity_id].delegation
        (old,) = (p for p in scheme.processor_ids if p != proc_id)
        repointed.append(scheme.fail_processor(old))
        assert set(repointed[0].values()) == {proc_id}

    log = IntakeLog(on_relay=fail_over)
    runtime = spread_runtime(
        LiveSettings(duration=2.0, batch_size=4), procs=2, services=[log]
    )
    report = runtime.run()
    steady = spread_runtime(LiveSettings(duration=2.0, batch_size=4), procs=2)
    steady.run()

    assert repointed and repointed[0]
    # both processors served as the delegate of the re-pointed stream
    (stream_id,) = repointed[0]
    delegates = {
        proc
        for proc, target, stream, __ in log.items
        if stream == stream_id and target is None
    }
    assert len(delegates) == 2
    keys = result_keys(runtime)
    assert keys and max(keys.values()) == 1
    assert keys == result_keys(steady)
    assert report.dropped_tuples == 0
    assert [
        v
        for v in audit_federation(runtime.planner, dataflow=runtime.dataflow)
        if v.check == "wiring"
    ] == []


def test_relay_keeps_result_multisets_at_every_batch_size():
    """Selection-only, heads of every stream on three processors: every
    result arrives exactly once, and the same results arrive however the
    runs are cut into batches."""
    keys = {}
    for batch_size in (1, 8, 32):
        runtime = spread_runtime(
            LiveSettings(duration=1.5, batch_size=batch_size)
        )
        report = runtime.run()
        assert report.dropped_tuples == 0
        keys[batch_size] = result_keys(runtime)
    assert keys[1] and max(keys[1].values()) == 1
    assert keys[8] == keys[1] and keys[32] == keys[1]


# ----------------------------------------------------------------------
# Monitoring report types
# ----------------------------------------------------------------------
def test_report_exposes_monitoring_types():
    __, report = run_live(LiveSettings(duration=1.0))
    loads = report.load_reports()
    assert len(loads) == 4  # one per entity
    assert all(isinstance(r, LoadReport) for r in loads)
    assert all(0.0 <= r.cpu_load <= 1.0 for r in loads)
    assert sum(r.query_count for r in loads) == len(filter_queries())

    view = report.federation_view()
    assert isinstance(view, SubtreeLoad)
    assert view.entity_count == 4
    assert view.total_queries == len(filter_queries())


def test_summary_and_queue_lines_render():
    __, report = run_live(LiveSettings(duration=1.0))
    text = "\n".join(report.summary_lines() + report.queue_lines())
    assert "throughput" in text
    assert "retries" in text
    assert "queue high-water" in text


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_live_command_runs(capsys):
    code = main(
        [
            "live",
            "--entities",
            "3",
            "--queries",
            "8",
            "--duration",
            "1.0",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "retries" in out
    assert "queue high-water" in out
