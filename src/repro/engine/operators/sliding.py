"""Per-tuple sliding-window running average."""

from __future__ import annotations

from collections import deque

from repro.engine.operators.base import Operator
from repro.streams.tuples import StreamTuple


class SlidingAverageOperator(Operator):
    """Annotate each tuple with the mean of ``attribute`` over the last
    ``window`` seconds (inclusive of the tuple itself).

    The output attribute is ``{attribute}_avg`` — the classic moving
    average a price-alert query compares against.
    """

    def __init__(
        self,
        name: str,
        attribute: str,
        *,
        window: float = 10.0,
        cost_per_tuple: float = 5e-5,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        super().__init__(
            name, cost_per_tuple=cost_per_tuple, estimated_selectivity=1.0
        )
        self.attribute = attribute
        self.window = window
        self._entries: deque[tuple[float, float]] = deque()  # (time, value)
        self._sum = 0.0

    def process_batch(
        self, batch: list[StreamTuple], now: float
    ) -> list[StreamTuple]:
        """Running-sum window maintained in a tight loop."""
        attribute = self.attribute
        out_attr = f"{attribute}_avg"
        window = self.window
        entries = self._entries
        running = self._sum
        out: list[StreamTuple] = []
        append = out.append
        for tup in batch:
            values = tup.values
            if attribute not in values:
                append(tup)
                continue
            created = tup.created_at
            horizon = created - window
            while entries and entries[0][0] < horizon:
                running -= entries.popleft()[1]
            value = values[attribute]
            entries.append((created, value))
            running += value
            append(tup.with_values(**{out_attr: running / len(entries)}))
        self._sum = running
        return out

    def reset_state(self) -> None:
        self._entries.clear()
        self._sum = 0.0
