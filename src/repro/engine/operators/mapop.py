"""Map operator: per-tuple transformation via a user function."""

from __future__ import annotations

from typing import Callable

from repro.engine.operators.base import Operator
from repro.streams.tuples import StreamTuple

MapFn = Callable[[StreamTuple], StreamTuple | None]


class MapOperator(Operator):
    """Apply ``fn`` to every tuple; ``None`` results are dropped.

    A map with an occasionally-``None`` function doubles as a complex
    (non-interval) predicate, which is how we model user-defined filters
    whose selectivity can only be *observed*, not computed — the case
    that motivates the Adaptation Module's statistics collection.
    """

    def __init__(
        self,
        name: str,
        fn: MapFn,
        *,
        cost_per_tuple: float = 1e-4,
        estimated_selectivity: float = 1.0,
    ) -> None:
        super().__init__(
            name,
            cost_per_tuple=cost_per_tuple,
            estimated_selectivity=estimated_selectivity,
        )
        self.fn = fn

    def process_batch(
        self, batch: list[StreamTuple], now: float
    ) -> list[StreamTuple]:
        """One pass of ``fn``; ``None`` results are dropped."""
        fn = self.fn
        return [result for result in map(fn, batch) if result is not None]
