"""Sliding-window equi-join over two streams.

The paper's discussion of why operators cannot migrate *between*
entities names the window join explicitly: its "synopsis" state is
engine-internal.  Our join keeps per-stream time windows (the synopsis),
so moving it between processors requires :meth:`reset_state` — the
state-loss cost that intra-entity placement must weigh.
"""

from __future__ import annotations

from collections import deque

from repro.engine.operators.base import Operator
from repro.streams.tuples import StreamTuple


class WindowJoinOperator(Operator):
    """Join tuples of ``left_stream`` and ``right_stream`` on one attribute.

    Two tuples join when they arrived within ``window`` seconds of each
    other and their join-attribute values differ by at most
    ``tolerance``.  Output values carry ``left.``/``right.`` prefixes.

    The per-tuple CPU cost grows with the probed window size, so a join
    is the expensive, stateful fragment in placement experiments.
    """

    def __init__(
        self,
        name: str,
        left_stream: str,
        right_stream: str,
        attribute: str,
        *,
        window: float = 5.0,
        tolerance: float = 0.0,
        cost_per_tuple: float = 2e-4,
        cost_per_probe: float = 2e-6,
        estimated_selectivity: float = 0.2,
    ) -> None:
        super().__init__(
            name,
            cost_per_tuple=cost_per_tuple,
            estimated_selectivity=estimated_selectivity,
        )
        if left_stream == right_stream:
            raise ValueError("window join requires two distinct streams")
        self.left_stream = left_stream
        self.right_stream = right_stream
        self.attribute = attribute
        self.window = window
        self.tolerance = tolerance
        self.cost_per_probe = cost_per_probe
        self._windows: dict[str, deque[StreamTuple]] = {
            left_stream: deque(),
            right_stream: deque(),
        }
        self._out_stream = f"{name}.out"
        # Output sequence counter; advances with every emitted join
        # result, so numbering is independent of batch boundaries.
        self._emit_seq = 0

    # ------------------------------------------------------------------
    def window_size(self, stream_id: str) -> int:
        """Current number of buffered tuples for one input stream."""
        return len(self._windows[stream_id])

    def fingerprint(self) -> tuple:
        """Structural shape: streams (sided), key, window and tolerance.

        Left/right order is part of the shape — swapping sides renames
        the ``left.``/``right.`` output attributes, so mirrored joins
        must not share one instance.  Costs are excluded: they scale
        accounting, never outputs.
        """
        return (
            "join",
            self.left_stream,
            self.right_stream,
            self.attribute,
            self.window,
            self.tolerance,
        )

    def cost(self, tup: StreamTuple) -> float:
        other = (
            self.right_stream
            if tup.stream_id == self.left_stream
            else self.left_stream
        )
        probes = len(self._windows.get(other, ()))
        return self.cost_per_tuple + self.cost_per_probe * probes

    def process_batch(
        self, batch: list[StreamTuple], now: float
    ) -> list[StreamTuple]:
        """Probe/insert the whole batch with pre-bound state.

        Expiry must run before *every* probe, not once per batch:
        ``now`` is shared across the batch, but a tuple whose
        ``created_at`` already lies past the horizon gets inserted and
        then expired before the next probe — skipping mid-batch expiry
        would let such stale tuples join, and the output would depend
        on where the batch was cut.  The inlined check is O(1) when
        nothing is stale.
        """
        windows = self._windows
        left_stream = self.left_stream
        right_stream = self.right_stream
        attribute = self.attribute
        tolerance = self.tolerance
        out_stream = self._out_stream
        out: list[StreamTuple] = []
        append = out.append
        horizon = now - self.window
        left_window = windows[left_stream]
        right_window = windows[right_stream]
        for tup in batch:
            stream_id = tup.stream_id
            if stream_id not in windows:
                append(tup)
                continue
            while left_window and left_window[0].created_at < horizon:
                left_window.popleft()
            while right_window and right_window[0].created_at < horizon:
                right_window.popleft()
            is_left = stream_id == left_stream
            other_id = right_stream if is_left else left_stream
            key = tup.value(attribute)
            for other in windows[other_id]:
                if abs(other.value(attribute) - key) <= tolerance:
                    left, right = (tup, other) if is_left else (other, tup)
                    values = {
                        f"left.{k}": v for k, v in left.values.items()
                    }
                    values.update(
                        {f"right.{k}": v for k, v in right.values.items()}
                    )
                    append(
                        StreamTuple(
                            stream_id=out_stream,
                            seq=self._emit_seq,
                            created_at=min(
                                left.created_at, right.created_at
                            ),
                            values=values,
                            size=left.size + right.size,
                        )
                    )
                    self._emit_seq += 1
            windows[stream_id].append(tup)
        return out

    def reset_state(self) -> None:
        for window in self._windows.values():
            window.clear()

    # --- partitioned execution hooks ----------------------------------
    def clone(self) -> "WindowJoinOperator":
        """A fresh same-config instance (empty windows, seq 0)."""
        return WindowJoinOperator(
            self.name,
            self.left_stream,
            self.right_stream,
            self.attribute,
            window=self.window,
            tolerance=self.tolerance,
            cost_per_tuple=self.cost_per_tuple,
            cost_per_probe=self.cost_per_probe,
            estimated_selectivity=self.estimated_selectivity,
        )

    def snapshot_windows(self) -> dict[str, list[StreamTuple]]:
        """The buffered window contents, per input stream."""
        return {
            stream_id: list(window)
            for stream_id, window in self._windows.items()
        }

    def load_windows(self, windows: dict[str, list[StreamTuple]]) -> None:
        """Replace the window contents (skew-rebalance redistribution)."""
        for stream_id, window in self._windows.items():
            window.clear()
            window.extend(windows.get(stream_id, ()))
