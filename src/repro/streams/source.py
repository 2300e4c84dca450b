"""Push-based stream sources.

A :class:`StreamSource` owns one schema, draws attribute values from the
schema's declared distributions, and pushes tuples to its subscribers on
the simulator clock.  Inter-arrival times are exponential (Poisson
arrivals) by default, or deterministic at ``1 / rate``.
"""

from __future__ import annotations

from typing import Callable

from repro.simulation.simulator import Simulator
from repro.streams.schema import StreamSchema
from repro.streams.tuples import StreamTuple

Subscriber = Callable[[StreamTuple], None]


class StreamSource:
    """Generates the tuples of one stream.

    Args:
        sim: Owning simulator (provides clock and RNG).
        schema: Stream schema; its ``rate`` drives tuple generation.
        poisson: Exponential inter-arrivals when true, deterministic
            ``1/rate`` gaps otherwise.
        rate_fn: Optional time-varying rate ``f(now) -> tuples/second``
            overriding the schema's constant rate (bursty feeds).  A
            non-positive instantaneous rate pauses emission; the source
            re-checks every ``idle_recheck`` seconds.
    """

    IDLE_RECHECK = 0.25

    def __init__(
        self,
        sim: Simulator,
        schema: StreamSchema,
        *,
        poisson: bool = True,
        rate_fn: Callable[[float], float] | None = None,
    ) -> None:
        self.sim = sim
        self.schema = schema
        self.poisson = poisson
        self.rate_fn = rate_fn
        self.emitted = 0
        self._subscribers: list[Subscriber] = []
        self._running = False
        self._stop: Callable[[], None] | None = None
        # bound to the simulator's RNG object, which re-seeding keeps
        self._samplers = tuple(
            (a.name, a.sampler(sim.rng)) for a in schema.attributes
        )

    @property
    def stream_id(self) -> str:
        """The id of the stream this source produces."""
        return self.schema.stream_id

    def subscribe(self, subscriber: Subscriber) -> Callable[[], None]:
        """Register a tuple callback; returns an unsubscribe function."""
        self._subscribers.append(subscriber)

        def unsubscribe() -> None:
            if subscriber in self._subscribers:
                self._subscribers.remove(subscriber)

        return unsubscribe

    @property
    def subscriber_count(self) -> int:
        """Number of live subscribers."""
        return len(self._subscribers)

    # ------------------------------------------------------------------
    def make_tuple(self) -> StreamTuple:
        """Draw one tuple at the current virtual time (no delivery)."""
        values = {name: draw() for name, draw in self._samplers}
        tup = StreamTuple(
            stream_id=self.schema.stream_id,
            seq=self.emitted,
            created_at=self.sim.now,
            values=values,
            size=self.schema.tuple_size,
        )
        self.emitted += 1
        return tup

    def emit(self) -> StreamTuple:
        """Draw one tuple and push it to every subscriber."""
        tup = self.make_tuple()
        for subscriber in list(self._subscribers):
            subscriber(tup)
        return tup

    def current_rate(self) -> float:
        """The instantaneous emission rate (tuples/second)."""
        if self.rate_fn is not None:
            return max(0.0, self.rate_fn(self.sim.now))
        return self.schema.rate

    def start(self) -> None:
        """Begin pushing tuples at the (possibly varying) rate."""
        if self._running:
            return
        if self.rate_fn is None and self.schema.rate <= 0:
            return
        self._running = True

        def tick(emit_now: bool) -> None:
            if not self._running:
                return
            if emit_now:
                self.emit()
            gap, next_emits = self._next_gap()
            self.sim.schedule(gap, lambda: tick(next_emits))

        gap, emits = self._next_gap()
        self.sim.schedule(gap, lambda: tick(emits))

    def _next_gap(self) -> tuple[float, bool]:
        """``(delay, whether a tuple fires at the end of the delay)``."""
        rate = self.current_rate()
        if rate <= 0:
            return self.IDLE_RECHECK, False
        if self.poisson:
            return self.sim.rng.expovariate(rate), True
        return 1.0 / rate, True

    def stop(self) -> None:
        """Stop generating tuples (pending emissions are abandoned)."""
        self._running = False
