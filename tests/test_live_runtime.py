"""Tests for the live asyncio federation runtime.

Covers the tentpole guarantees: backpressure under a slow consumer,
retry/backoff on injected send failures (drops as metrics, not
exceptions), parity with the discrete-event simulator on a seeded
workload, and reporting through the existing monitoring report types.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.system import FederatedSystem, SystemConfig
from repro.interest.predicates import StreamInterest
from repro.live import (
    LiveRuntime,
    LiveSettings,
    RuntimeService,
    TransportChaos,
)
from repro.monitoring.reports import LoadReport, SubtreeLoad
from repro.query.spec import QuerySpec
from repro.streams.catalog import stock_catalog


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
def test_backpressure_bounds_queues_under_slow_consumer():
    """A slow gateway must block its producers at the channel bound,
    not grow an unbounded queue — and nothing may be dropped."""
    __, report = run_live(
        LiveSettings(
            duration=1.5,
            batch_size=1,
            channel_capacity=3,
            gateway_service_wall=0.0003,
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
# Parity with the discrete-event simulator
# ----------------------------------------------------------------------
def _simulated_result_keys(seed, duration):
    """Run the simulator and collect (query, stream, seq) result keys."""
    system = FederatedSystem(make_catalog(), make_config(seed))
    system.submit(filter_queries())
    observed = set()

    def wrap(handler):
        def wrapped(query_id, tup):
            observed.add((query_id, tup.stream_id, tup.seq))
            handler(query_id, tup)

        return wrapped

    for entity in system.entities.values():
        if entity.result_handler is not None:
            entity.result_handler = wrap(entity.result_handler)
    system.run(duration=duration)
    system.sim.run()  # drain in-flight tuples so the run is complete
    return observed


def test_live_results_match_simulator_on_seeded_workload():
    """Same config, same seed, same workload: the live runtime must
    produce exactly the result tuples the simulator produces."""
    seed, duration = 11, 3.0
    sim_keys = _simulated_result_keys(seed, duration)

    runtime, report = run_live(
        LiveSettings(duration=duration, batch_size=4), seed=seed
    )
    live_keys = {
        (query_id, tup.stream_id, tup.seq)
        for query_id, tups in runtime.results.items()
        for tup in tups
    }
    assert report.dropped_tuples == 0
    assert report.negative_latency_samples == 0
    assert sim_keys  # the workload actually produced results
    assert live_keys == sim_keys


def test_parity_holds_across_seeds():
    for seed in (3, 29):
        sim_keys = _simulated_result_keys(seed, 1.5)
        runtime, report = run_live(LiveSettings(duration=1.5), seed=seed)
        live_keys = {
            (query_id, tup.stream_id, tup.seq)
            for query_id, tups in runtime.results.items()
            for tup in tups
        }
        assert report.negative_latency_samples == 0
        assert live_keys == sim_keys


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
