"""Top-K operator over tumbling windows.

Emits the K tuples with the largest ``attribute`` values when each
window closes — the "hottest symbols" style query of stock tickers.
"""

from __future__ import annotations

import heapq
import math

from repro.engine.operators.base import Operator
from repro.streams.tuples import StreamTuple


class TopKOperator(Operator):
    """Keep the K largest-``attribute`` tuples per tumbling window."""

    def __init__(
        self,
        name: str,
        attribute: str,
        *,
        k: int = 10,
        window: float = 10.0,
        cost_per_tuple: float = 8e-5,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if window <= 0:
            raise ValueError("window must be positive")
        super().__init__(
            name, cost_per_tuple=cost_per_tuple, estimated_selectivity=0.1
        )
        self.attribute = attribute
        self.k = k
        self.window = window
        self._current_window: int | None = None
        # min-heap of (value, seq, tuple); seq breaks value ties
        self._heap: list[tuple[float, int, StreamTuple]] = []

    def _flush(self) -> list[StreamTuple]:
        winners = sorted(self._heap, key=lambda e: (-e[0], e[1]))
        self._heap.clear()
        return [tup for __, __, tup in winners]

    def process_batch(
        self, batch: list[StreamTuple], now: float
    ) -> list[StreamTuple]:
        """Heap maintenance in one loop; a window flushes inline, at
        the first tuple that belongs to a later one."""
        attribute = self.attribute
        window = self.window
        k = self.k
        heap = self._heap
        floor = math.floor
        heappush = heapq.heappush
        heapreplace = heapq.heapreplace
        out: list[StreamTuple] = []
        for tup in batch:
            values = tup.values
            if attribute not in values:
                out.append(tup)
                continue
            window_index = floor(tup.created_at / window)
            if self._current_window is None:
                self._current_window = window_index
            elif window_index > self._current_window:
                out.extend(self._flush())
                self._current_window = window_index
            entry = (values[attribute], tup.seq, tup)
            if len(heap) < k:
                heappush(heap, entry)
            elif entry[0] > heap[0][0]:
                heapreplace(heap, entry)
        return out

    def reset_state(self) -> None:
        self._current_window = None
        self._heap.clear()
