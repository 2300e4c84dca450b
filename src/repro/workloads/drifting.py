"""Operators and rate profiles whose behaviour drifts over time.

Runtime adaptation only pays off when "the system is subject to
changes"; the drifting filter makes selectivity a function of virtual
time, so the compile-time optimal operator order stops being optimal
mid-run — the scenario E10 uses to compare static vs adaptive ordering.
The drifting-*rate* helpers do the same to stream volume: a crossfade
sends the load planned for one set of streams to another, so an
allocation computed from the planned rates goes stale mid-run — the
scenario E17 uses to compare static allocation against the live
adaptation loop.
"""

from __future__ import annotations

import zlib
from typing import Callable

from repro.engine.operators.base import Operator
from repro.streams.catalog import StreamCatalog
from repro.streams.source import StreamSource
from repro.streams.tuples import StreamTuple
from repro.workloads.rates import RateFn, ramp


class DriftingFilter(Operator):
    """A filter whose pass probability is ``probability_fn(time)``.

    The per-tuple keep/drop decision is a deterministic hash of
    ``(name, stream, seq)`` compared against the current probability, so
    runs are reproducible without threading an RNG through the engine.
    """

    def __init__(
        self,
        name: str,
        probability_fn: Callable[[float], float],
        *,
        cost_per_tuple: float = 1e-4,
    ) -> None:
        super().__init__(
            name, cost_per_tuple=cost_per_tuple, estimated_selectivity=0.5
        )
        self.probability_fn = probability_fn

    def _unit_hash(self, tup: StreamTuple) -> float:
        key = f"{self.name}|{tup.stream_id}|{tup.seq}".encode()
        return (zlib.crc32(key) & 0xFFFFFFFF) / 2**32

    def process_batch(
        self, batch: list[StreamTuple], now: float
    ) -> list[StreamTuple]:
        probability = min(1.0, max(0.0, self.probability_fn(now)))
        unit_hash = self._unit_hash
        return [tup for tup in batch if unit_hash(tup) < probability]


def step_drift(
    before: float, after: float, switch_at: float
) -> Callable[[float], float]:
    """A pass-probability that jumps from ``before`` to ``after``."""
    def fn(now: float) -> float:
        return before if now < switch_at else after

    return fn


def linear_drift(
    start: float, end: float, duration: float
) -> Callable[[float], float]:
    """A pass-probability that slides linearly over ``duration`` seconds."""
    def fn(now: float) -> float:
        if duration <= 0:
            return end
        frac = min(1.0, max(0.0, now / duration))
        return start + (end - start) * frac

    return fn


def crossfade_rates(
    catalog: StreamCatalog,
    hot_streams: set[str] | frozenset[str],
    *,
    factor_up: float = 6.0,
    factor_down: float = 0.25,
    duration: float = 2.0,
) -> dict[str, RateFn]:
    """Rate profiles that shift load between stream groups over time.

    Streams in ``hot_streams`` ramp linearly from their catalog rate to
    ``factor_up`` times it over ``duration`` seconds; every other stream
    ramps down to ``factor_down`` times its rate.  The allocation
    computed from the catalog's static rates is correct at ``t = 0`` and
    increasingly wrong after — the drifting-rate workload behind E17.
    """
    if factor_up <= 0 or factor_down <= 0:
        raise ValueError("rate factors must be positive")
    profiles: dict[str, RateFn] = {}
    for stream_id in catalog.stream_ids():
        base = catalog.schema(stream_id).rate
        factor = factor_up if stream_id in hot_streams else factor_down
        profiles[stream_id] = ramp(base, base * factor, duration=duration)
    return profiles


def apply_rate_drift(
    sources: dict[str, StreamSource], profiles: dict[str, RateFn]
) -> int:
    """Install rate profiles on live stream sources (before the trace is
    recorded).  Returns the number of sources affected."""
    applied = 0
    for stream_id, profile in profiles.items():
        source = sources.get(stream_id)
        if source is not None:
            source.rate_fn = profile
            applied += 1
    return applied
