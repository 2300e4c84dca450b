"""Tests for push-based stream sources."""

from __future__ import annotations

import hashlib

import pytest

from repro.simulation.simulator import Simulator
from repro.streams.catalog import stock_catalog
from repro.streams.source import StreamSource


def test_emit_pushes_to_subscribers(sim, simple_schema):
    source = StreamSource(sim, simple_schema)
    got = []
    source.subscribe(got.append)
    tup = source.emit()
    assert got == [tup]
    assert tup.stream_id == "ticks"


def test_seq_numbers_increase(sim, simple_schema):
    source = StreamSource(sim, simple_schema)
    seqs = [source.emit().seq for __ in range(5)]
    assert seqs == [0, 1, 2, 3, 4]


def test_values_match_schema_domains(sim, simple_schema):
    source = StreamSource(sim, simple_schema)
    for __ in range(50):
        tup = source.make_tuple()
        assert 0.0 <= tup.value("price") <= 100.0
        assert 0 <= tup.value("symbol") <= 99


def test_deterministic_rate_generates_expected_count(sim, simple_schema):
    source = StreamSource(sim, simple_schema, poisson=False)
    got = []
    source.subscribe(got.append)
    source.start()
    sim.run(until=2.0)
    # rate 50/s over 2s, deterministic gaps (float accumulation may drop
    # the tuple scheduled exactly at the horizon)
    assert 99 <= len(got) <= 100


def test_poisson_rate_approximates_expected_count(sim, simple_schema):
    source = StreamSource(sim, simple_schema, poisson=True)
    got = []
    source.subscribe(got.append)
    source.start()
    sim.run(until=10.0)
    assert 350 < len(got) < 650  # 500 expected


def test_stop_halts_generation(sim, simple_schema):
    source = StreamSource(sim, simple_schema, poisson=False)
    got = []
    source.subscribe(got.append)
    source.start()
    sim.run(until=1.0)
    source.stop()
    count = len(got)
    sim.run(until=3.0)
    assert len(got) == count


def test_unsubscribe(sim, simple_schema):
    source = StreamSource(sim, simple_schema)
    got = []
    unsubscribe = source.subscribe(got.append)
    source.emit()
    unsubscribe()
    source.emit()
    assert len(got) == 1
    assert source.subscriber_count == 0


def test_zero_rate_source_never_starts(sim, simple_schema):
    schema = type(simple_schema)(
        stream_id="quiet",
        attributes=simple_schema.attributes,
        tuple_size=64.0,
        rate=0.0,
    )
    source = StreamSource(sim, schema)
    got = []
    source.subscribe(got.append)
    source.start()
    sim.run(until=5.0)
    assert got == []


def test_created_at_matches_clock(sim, simple_schema):
    source = StreamSource(sim, simple_schema, poisson=False)
    got = []
    source.subscribe(got.append)
    source.start()
    sim.run(until=0.1)
    assert got
    assert got[0].created_at == pytest.approx(1.0 / 50.0)


def test_double_start_is_idempotent(sim, simple_schema):
    source = StreamSource(sim, simple_schema, poisson=False)
    got = []
    source.subscribe(got.append)
    source.start()
    source.start()
    sim.run(until=1.0)
    assert 49 <= len(got) <= 50  # not doubled by the second start()


def test_stock_trace_is_pinned():
    """The seeded source trace of ``stock_catalog(exchanges=2)`` —
    arrival instants and every drawn value — hashes to a pinned digest,
    so a change to how sources draw cannot silently change the data."""
    sim = Simulator(seed=91)
    trace = []
    for schema in stock_catalog(exchanges=2).schemas():
        source = StreamSource(sim, schema)
        source.subscribe(lambda tup: trace.append((sim.now, tup)))
        source.start()
    sim.run(until=5.0)
    digest = hashlib.sha256()
    for at, tup in trace:
        row = (at, tup.stream_id, tup.seq, tuple(tup.values.items()))
        digest.update(repr(row).encode())
    assert len(trace) == 2055
    assert digest.hexdigest() == (
        "ddb3dc703cf37101651827062450e18f26119bd6f6295609b355d1d4c28401f6"
    )
