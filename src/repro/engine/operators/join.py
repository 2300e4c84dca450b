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


class _SideNames(dict):
    """Attribute name -> its ``left.``/``right.`` output name, built once."""

    __slots__ = ("prefix",)

    def __init__(self, prefix: str) -> None:
        super().__init__()
        self.prefix = prefix

    def __missing__(self, attribute: str) -> str:
        name = self[attribute] = f"{self.prefix}{attribute}"
        return name


class _Side:
    """One input stream's synopsis: the window and its key index.

    ``window`` holds ``(tuple, key, renamed values)`` entries in arrival
    order and alone decides membership.  ``by_key`` maps a join-key
    value to the arrival-order deque of the window's entries with that
    key.  It mirrors ``window``: an entry enters both in :meth:`add` and
    leaves ``by_key`` only when :meth:`expire` or :meth:`clear` drops it
    from ``window``, so a bucket is the window restricted to one key, in
    window order.  Keys that match nothing under ``abs(a - b) <= 0``
    (NaN, ±inf: ``key - key`` is not 0) stay out of the index, where
    ``inf == inf`` would pair them.
    """

    __slots__ = ("window", "by_key", "names")

    def __init__(self, prefix: str) -> None:
        self.window: deque[tuple[StreamTuple, float, dict[str, float]]] = deque()
        self.by_key: dict[float, deque] = {}
        self.names = _SideNames(prefix)

    def add(self, tup: StreamTuple, key: float) -> dict[str, float]:
        """Append ``tup``; returns its values under this side's names."""
        names = self.names
        renamed = {names[k]: v for k, v in tup.values.items()}
        entry = (tup, key, renamed)
        self.window.append(entry)
        if key - key == 0:
            bucket = self.by_key.get(key)
            if bucket is None:
                bucket = self.by_key[key] = deque()
            bucket.append(entry)
        return renamed

    def expire(self, horizon: float) -> None:
        """Pop front entries created before ``horizon``, and only those:
        a stale tuple behind a fresher front stays joinable."""
        window = self.window
        by_key = self.by_key
        while window and window[0][0].created_at < horizon:
            key = window.popleft()[1]
            if key - key == 0:
                # the window's oldest entry is also its key's oldest
                bucket = by_key[key]
                bucket.popleft()
                if not bucket:
                    del by_key[key]

    def clear(self) -> None:
        self.window.clear()
        self.by_key.clear()


class WindowJoinOperator(Operator):
    """Join tuples of ``left_stream`` and ``right_stream`` on one attribute.

    Two tuples join when they arrived within ``window`` seconds of each
    other and their join-attribute values differ by at most
    ``tolerance``.  Output values carry ``left.``/``right.`` prefixes.

    Each stream's window is a :class:`_Side`: the arrival-order deque
    plus a dict from join-key value to that key's entries, every entry
    carrying its values already renamed for its side.  An exact-match
    probe (``tolerance == 0``) walks one bucket, so its work grows with
    its matches, and a match is one dict merge; a band join scans the
    opposite window.  Keys pair by ``==``, which agrees with
    ``abs(a - b) <= 0`` for every float and every int a float holds
    exactly (``1`` and ``1.0``, ``0.0`` and ``-0.0`` join).

    The *nominal* per-tuple CPU cost (:meth:`cost`) still grows with the
    probed window size — the simulator prices a scanning engine — so a
    join is the expensive, stateful fragment in placement experiments.
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
        self._sides = {
            left_stream: _Side("left."),
            right_stream: _Side("right."),
        }
        self._out_stream = f"{name}.out"
        # Output sequence counter; advances with every emitted join
        # result, so numbering is independent of batch boundaries.
        self._emit_seq = 0

    # ------------------------------------------------------------------
    def window_size(self, stream_id: str) -> int:
        """Current number of buffered tuples for one input stream."""
        return len(self._sides[stream_id].window)

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
        probes = len(self._sides[other].window)
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
        on where the batch was cut.  The check is O(1) when nothing is
        stale.
        """
        left_stream = self.left_stream
        right_stream = self.right_stream
        left_side = self._sides[left_stream]
        right_side = self._sides[right_stream]
        attribute = self.attribute
        tolerance = self.tolerance
        exact = tolerance == 0.0
        out_stream = self._out_stream
        emit_seq = self._emit_seq
        out: list[StreamTuple] = []
        append = out.append
        horizon = now - self.window
        for tup in batch:
            stream_id = tup.stream_id
            if stream_id == left_stream:
                is_left = True
                mine, other = left_side, right_side
            elif stream_id == right_stream:
                is_left = False
                mine, other = right_side, left_side
            else:
                append(tup)
                continue
            left_side.expire(horizon)
            right_side.expire(horizon)
            key = tup.value(attribute)
            if exact:
                matches = other.by_key.get(key, ()) if key - key == 0 else ()
            else:
                matches = [
                    entry
                    for entry in other.window
                    if abs(entry[1] - key) <= tolerance
                ]
            # (inserting before the probe is safe: it reads the other side)
            renamed = mine.add(tup, key)
            for other_tup, __, other_renamed in matches:
                if is_left:
                    left, right = tup, other_tup
                    values = renamed | other_renamed
                else:
                    left, right = other_tup, tup
                    values = other_renamed | renamed
                append(
                    StreamTuple(
                        out_stream,
                        emit_seq,
                        min(left.created_at, right.created_at),
                        values,
                        left.size + right.size,
                    )
                )
                emit_seq += 1
            self._emit_seq = emit_seq
        return out

    def reset_state(self) -> None:
        for side in self._sides.values():
            side.clear()

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
            stream_id: [entry[0] for entry in side.window]
            for stream_id, side in self._sides.items()
        }

    def load_windows(self, windows: dict[str, list[StreamTuple]]) -> None:
        """Replace the window contents (skew-rebalance redistribution);
        the key index is rebuilt from them."""
        attribute = self.attribute
        for stream_id, side in self._sides.items():
            side.clear()
            for tup in windows.get(stream_id, ()):
                side.add(tup, tup.value(attribute))
