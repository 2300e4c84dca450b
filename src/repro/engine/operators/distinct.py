"""Duplicate suppression within a sliding time window."""

from __future__ import annotations

from collections import deque

from repro.engine.operators.base import Operator
from repro.streams.tuples import StreamTuple


class DistinctOperator(Operator):
    """Pass a tuple only if its ``attribute`` value was not seen in the
    last ``window`` seconds (alert de-duplication)."""

    def __init__(
        self,
        name: str,
        attribute: str,
        *,
        window: float = 10.0,
        cost_per_tuple: float = 4e-5,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        super().__init__(
            name, cost_per_tuple=cost_per_tuple, estimated_selectivity=0.5
        )
        self.attribute = attribute
        self.window = window
        self._last_seen: dict[float, float] = {}
        self._order: deque[tuple[float, float]] = deque()  # (time, value)

    def process_batch(
        self, batch: list[StreamTuple], now: float
    ) -> list[StreamTuple]:
        """One tight loop over pre-bound window state.

        Sequential by nature: each tuple's verdict depends on the ones
        before it, and the window expires by the tuple's own
        ``created_at`` before every lookup.
        """
        attribute = self.attribute
        window = self.window
        last_seen = self._last_seen
        order = self._order
        out: list[StreamTuple] = []
        append = out.append
        for tup in batch:
            values = tup.values
            if attribute not in values:
                append(tup)
                continue
            created = tup.created_at
            horizon = created - window
            while order and order[0][0] < horizon:
                seen_at, seen_value = order.popleft()
                if last_seen.get(seen_value) == seen_at:
                    del last_seen[seen_value]
            value = values[attribute]
            duplicate = value in last_seen
            last_seen[value] = created
            order.append((created, value))
            if not duplicate:
                append(tup)
        return out

    def reset_state(self) -> None:
        self._last_seen.clear()
        self._order.clear()
