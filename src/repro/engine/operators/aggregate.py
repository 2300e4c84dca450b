"""Tumbling-window aggregation, optionally grouped.

Emits one tuple per (window, group) when a window closes — detected on
the arrival of the first tuple belonging to a later window, the standard
low-watermark trick for in-order streams.
"""

from __future__ import annotations

import math
from repro.engine.operators.base import Operator
from repro.streams.tuples import StreamTuple

SUM = "sum"
COUNT = "count"
AVG = "avg"
MIN = "min"
MAX = "max"
_FUNCTIONS = (SUM, COUNT, AVG, MIN, MAX)


class WindowAggregateOperator(Operator):
    """Aggregate ``attribute`` over tumbling windows of ``window`` seconds.

    Args:
        name: Operator instance name.
        attribute: The attribute aggregated.
        fn: One of ``sum``, ``count``, ``avg``, ``min``, ``max``.
        window: Tumbling window length in seconds.
        group_by: Optional attribute whose value partitions the window.
    """

    def __init__(
        self,
        name: str,
        attribute: str,
        *,
        fn: str = AVG,
        window: float = 10.0,
        group_by: str | None = None,
        cost_per_tuple: float = 6e-5,
    ) -> None:
        if fn not in _FUNCTIONS:
            raise ValueError(f"unknown aggregate {fn!r}; pick from {_FUNCTIONS}")
        if window <= 0:
            raise ValueError("window must be positive")
        super().__init__(
            name, cost_per_tuple=cost_per_tuple, estimated_selectivity=0.1
        )
        self.attribute = attribute
        self.fn = fn
        self.window = window
        self.group_by = group_by
        self._current_window: int | None = None
        # group key -> (count, sum, min, max)
        self._accumulators: dict[float, list[float]] = {}
        self._out_stream = f"{name}.out"
        self._emit_seq = 0

    # ------------------------------------------------------------------
    def _flush(self, window_index: int) -> list[StreamTuple]:
        out = []
        window_end = (window_index + 1) * self.window
        for group, (count, total, lo, hi) in sorted(self._accumulators.items()):
            if self.fn == SUM:
                result = total
            elif self.fn == COUNT:
                result = count
            elif self.fn == AVG:
                result = total / count
            elif self.fn == MIN:
                result = lo
            else:
                result = hi
            values = {self.fn: result, "window_end": window_end}
            if self.group_by is not None:
                values[self.group_by] = group
            out.append(
                StreamTuple(
                    stream_id=self._out_stream,
                    seq=self._emit_seq,
                    created_at=window_end,
                    values=values,
                    size=8.0 * len(values),
                )
            )
            self._emit_seq += 1
        self._accumulators.clear()
        return out

    def process_batch(
        self, batch: list[StreamTuple], now: float
    ) -> list[StreamTuple]:
        """Accumulate the whole batch; a window flushes inline, at the
        first tuple that belongs to a later one."""
        attribute = self.attribute
        window = self.window
        group_by = self.group_by
        accumulators = self._accumulators
        floor = math.floor
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
                out.extend(self._flush(self._current_window))
                self._current_window = window_index
            group = values.get(group_by, 0.0) if group_by else 0.0
            value = values[attribute]
            acc = accumulators.get(group)
            if acc is None:
                accumulators[group] = [1, value, value, value]
            else:
                acc[0] += 1
                acc[1] += value
                if value < acc[2]:
                    acc[2] = value
                if value > acc[3]:
                    acc[3] = value
        return out

    def fingerprint(self) -> tuple:
        """Structural shape: attribute, function, window and grouping.

        Cost overrides are excluded — two aggregates with equal shape
        produce identical output sequences regardless of their nominal
        CPU charge.
        """
        return ("agg", self.attribute, self.fn, self.window, self.group_by)

    def advance_window(self, window_index: int) -> list[StreamTuple]:
        """Close windows up to ``window_index`` (exclusive) and emit.

        Partitioned-execution punctuation: the router broadcasts the
        window boundary it observed, and every parallel clone flushes
        the same window even if it saw no tuple past the boundary.  A
        clone that never opened a window just records the new watermark.
        """
        out: list[StreamTuple] = []
        if self._current_window is not None and window_index > self._current_window:
            out = self._flush(self._current_window)
        self._current_window = window_index
        return out

    def reset_state(self) -> None:
        self._current_window = None
        self._accumulators.clear()

    # --- partitioned execution hooks ----------------------------------
    def clone(self) -> "WindowAggregateOperator":
        """A fresh same-config instance (no accumulators, seq 0)."""
        return WindowAggregateOperator(
            self.name,
            self.attribute,
            fn=self.fn,
            window=self.window,
            group_by=self.group_by,
            cost_per_tuple=self.cost_per_tuple,
        )

    def snapshot_groups(
        self,
    ) -> tuple[int | None, dict[float, list[float]]]:
        """The watermark and per-group accumulators, copied out."""
        return self._current_window, {
            group: list(acc) for group, acc in self._accumulators.items()
        }

    def load_groups(
        self,
        current_window: int | None,
        accumulators: dict[float, list[float]],
    ) -> None:
        """Replace the aggregation state (skew-rebalance redistribution)."""
        self._current_window = current_window
        self._accumulators = {
            group: list(acc) for group, acc in accumulators.items()
        }
