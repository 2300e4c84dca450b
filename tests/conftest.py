"""Shared fixtures for the test suite."""

from __future__ import annotations

import faulthandler

import pytest

from repro.simulation.network import Network
from repro.simulation.simulator import Simulator
from repro.streams.catalog import StreamCatalog, stock_catalog
from repro.streams.schema import Attribute, StreamSchema


# A test still running after this many seconds is hung (the slowest
# takes a few): dump every thread's stack and exit instead of waiting
# for the CI job's timeout.
HANG_SECONDS = 120


@pytest.fixture(autouse=True)
def hang_guard():
    """Arm a stack-dumping exit around each test."""
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def sim() -> Simulator:
    """A fresh seeded simulator."""
    return Simulator(seed=1234)


@pytest.fixture
def network(sim: Simulator) -> Network:
    """An empty network bound to the simulator."""
    return Network(sim)


@pytest.fixture
def simple_schema() -> StreamSchema:
    """A single-stream schema with one uniform and one zipf attribute."""
    return StreamSchema(
        stream_id="ticks",
        attributes=(
            Attribute("price", 0.0, 100.0),
            Attribute("symbol", 0, 99, "zipf", 1.0),
        ),
        tuple_size=64.0,
        rate=50.0,
    )


@pytest.fixture
def catalog(simple_schema: StreamSchema) -> StreamCatalog:
    """A catalog holding only the simple schema."""
    cat = StreamCatalog()
    cat.register(simple_schema)
    return cat


@pytest.fixture
def stocks() -> StreamCatalog:
    """The standard two-exchange stock catalog."""
    return stock_catalog(exchanges=2, rate=100.0)
