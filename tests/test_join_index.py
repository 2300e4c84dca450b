"""Property tests: the keyed join window ≡ the nested-loop scan.

:class:`~repro.engine.operators.join.WindowJoinOperator` probes a
per-key index of the opposite window instead of scanning it.  The
index only *mirrors* the arrival-order deque, so nothing observable may
move: :class:`ScanJoin` below is the kernel as it stood before the
index (every probe walks the whole opposite window and tests ``abs(a -
b) <= tolerance``), kept here as the oracle.  Hypothesis drives both
with one two-stream sequence and compares, after every batch, the
outputs (whole tuples, ``seq`` included), ``stats``, ``window_size()``,
``cost()`` and ``snapshot_windows()`` — across ``reset_state()`` and
across the ``snapshot_windows()`` → ``load_windows()`` round trip on a
fresh ``clone()`` that skew rebalancing performs.

Comparison is by ``repr``: it tells ``1`` from ``1.0`` and ``0.0`` from
``-0.0``, which ``==`` does not, and it is indifferent to NaN != NaN.
"""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.engine.operators.base import Operator
from repro.engine.operators.join import WindowJoinOperator
from repro.streams.tuples import StreamTuple

INF = float("inf")
NAN = float("nan")


class ScanJoin(Operator):
    """The nested-loop window join: the oracle."""

    def __init__(self, name, left_stream, right_stream, attribute, *,
                 window, tolerance, cost_per_tuple=2e-4, cost_per_probe=2e-6):
        super().__init__(
            name, cost_per_tuple=cost_per_tuple, estimated_selectivity=0.2
        )
        self.left_stream = left_stream
        self.right_stream = right_stream
        self.attribute = attribute
        self.window = window
        self.tolerance = tolerance
        self.cost_per_probe = cost_per_probe
        self._windows = {left_stream: deque(), right_stream: deque()}
        self._out_stream = f"{name}.out"
        self._emit_seq = 0

    def window_size(self, stream_id):
        return len(self._windows[stream_id])

    def cost(self, tup):
        other = (
            self.right_stream
            if tup.stream_id == self.left_stream
            else self.left_stream
        )
        return self.cost_per_tuple + self.cost_per_probe * len(
            self._windows[other]
        )

    def process_batch(self, batch, now):
        windows = self._windows
        attribute = self.attribute
        out = []
        horizon = now - self.window
        for tup in batch:
            if tup.stream_id not in windows:
                out.append(tup)
                continue
            for window in windows.values():
                while window and window[0].created_at < horizon:
                    window.popleft()
            is_left = tup.stream_id == self.left_stream
            other_id = self.right_stream if is_left else self.left_stream
            key = tup.value(attribute)
            for other in windows[other_id]:
                if abs(other.value(attribute) - key) <= self.tolerance:
                    left, right = (tup, other) if is_left else (other, tup)
                    values = {
                        f"left.{k}": v for k, v in left.values.items()
                    }
                    values.update(
                        {f"right.{k}": v for k, v in right.values.items()}
                    )
                    out.append(
                        StreamTuple(
                            stream_id=self._out_stream,
                            seq=self._emit_seq,
                            created_at=min(
                                left.created_at, right.created_at
                            ),
                            values=values,
                            size=left.size + right.size,
                        )
                    )
                    self._emit_seq += 1
            windows[tup.stream_id].append(tup)
        return out

    def reset_state(self):
        for window in self._windows.values():
            window.clear()

    def clone(self):
        return ScanJoin(
            self.name, self.left_stream, self.right_stream, self.attribute,
            window=self.window, tolerance=self.tolerance,
        )

    def snapshot_windows(self):
        return {s: list(w) for s, w in self._windows.items()}

    def load_windows(self, windows):
        for stream_id, window in self._windows.items():
            window.clear()
            window.extend(windows.get(stream_id, ()))


# Duplicates, int/float twins, signed zeros, keys within a band of each
# other, and the three values that equal nothing under ``abs(a - b) <= 0``.
KEYS = (1, 1.0, 2.0, 2, 0.0, -0.0, 3.25, 3.5, 7, INF, -INF, NAN)

PROCESS, RESET, RELOAD = "process", "reset", "reload"


@st.composite
def scripts(draw):
    """A tolerance plus a list of steps over one shared tuple sequence.

    ``created_at`` jitters around a slowly advancing clock, so stale
    tuples land behind fresher fronts; ``now`` only moves forward, by
    up to more than a window at a time.
    """
    tolerance = draw(st.sampled_from([0.0, 0.5]))
    steps = []
    clock = 0.0
    seq = 0
    for __ in range(draw(st.integers(1, 12))):
        kind = draw(
            st.sampled_from([PROCESS] * 8 + [RESET, RELOAD])
        )
        if kind != PROCESS:
            steps.append((kind, None, None))
            continue
        batch = []
        for __ in range(draw(st.integers(0, 8))):
            stream = draw(st.sampled_from(["l", "l", "r", "r", "other"]))
            created_at = max(
                0.0, clock + draw(st.floats(min_value=-6.0, max_value=1.0))
            )
            values = {"k": draw(st.sampled_from(KEYS)), "x": float(seq)}
            if draw(st.booleans()):
                values = {"pad": 0.5, **values}
            batch.append(StreamTuple(stream, seq, created_at, values, 48.0))
            seq += 1
        clock += draw(st.floats(min_value=0.0, max_value=7.0))
        steps.append((PROCESS, batch, clock))
    return tolerance, steps


def observe(op: Operator) -> str:
    probe_left = StreamTuple("l", -1, 0.0, {"k": 1.0}, 1.0)
    probe_right = StreamTuple("r", -1, 0.0, {"k": 1.0}, 1.0)
    return repr(
        (
            op.stats,
            op.window_size("l"),
            op.window_size("r"),
            op.cost(probe_left),
            op.cost(probe_right),
            op.snapshot_windows(),
        )
    )


@given(scripts())
@settings(max_examples=300, deadline=None)
def test_keyed_join_equals_scan(script):
    tolerance, steps = script
    keyed = WindowJoinOperator(
        "j", "l", "r", "k", window=5.0, tolerance=tolerance
    )
    scan = ScanJoin("j", "l", "r", "k", window=5.0, tolerance=tolerance)
    for kind, batch, now in steps:
        if kind == RESET:
            keyed.reset_state()
            scan.reset_state()
        elif kind == RELOAD:
            snapshots = [keyed.snapshot_windows(), scan.snapshot_windows()]
            keyed, scan = keyed.clone(), scan.clone()
            keyed.load_windows(snapshots[0])
            scan.load_windows(snapshots[1])
        else:
            assert repr(keyed.apply_batch(batch, now)) == repr(
                scan.apply_batch(batch, now)
            )
        assert observe(keyed) == observe(scan)


# ----------------------------------------------------------------------
# Special keys, spelled out
# ----------------------------------------------------------------------
def _join(tolerance=0.0):
    return WindowJoinOperator(
        "j", "l", "r", "k", window=5.0, tolerance=tolerance
    )


def _tup(stream, seq, key, created_at=0.0):
    return StreamTuple(stream, seq, created_at, {"k": key}, 10.0)


def test_non_finite_keys_match_nothing_not_even_themselves():
    for key in (INF, -INF, NAN):
        join = _join()
        assert join.apply(_tup("l", 0, key), 0.0) == []
        assert join.apply(_tup("r", 0, key), 0.0) == []
        assert join.window_size("l") == join.window_size("r") == 1


def test_int_float_twins_and_signed_zeros_match_both_ways():
    for a, b in ((1, 1.0), (1.0, 1), (0.0, -0.0), (-0.0, 0.0)):
        join = _join()
        join.apply(_tup("l", 0, a), 0.0)
        (out,) = join.apply(_tup("r", 0, b), 0.0)
        assert repr(out.values) == repr({"left.k": a, "right.k": b})


def test_stale_tuple_behind_a_fresh_front_stays_joinable():
    join = _join()
    join.apply(_tup("l", 0, 1.0, created_at=9.0), 9.0)  # fresh front
    join.apply(_tup("l", 1, 2.0, created_at=0.0), 9.0)  # stale, behind it
    out = join.apply(_tup("r", 0, 2.0, created_at=9.0), 9.0)
    assert [o.values["left.k"] for o in out] == [2.0]
    # ... until the front itself expires and takes it along
    assert join.apply(_tup("r", 1, 2.0, created_at=15.0), 15.0) == []
    assert join.window_size("l") == 0


# ----------------------------------------------------------------------
# Work ∝ matches
# ----------------------------------------------------------------------
class CountingValues(dict):
    """A values dict counting keyed reads, over all instances."""

    reads = 0

    def __getitem__(self, name):
        CountingValues.reads += 1
        return super().__getitem__(name)


def test_an_exact_probe_reads_its_matches_not_its_window():
    join = _join()
    for i in range(1000):
        join.apply(
            StreamTuple(
                "l", i, 0.0, CountingValues(k=float(i), x=1.0), 10.0
            ),
            0.0,
        )
    assert join.window_size("l") == 1000
    CountingValues.reads = 0
    out = join.apply(
        StreamTuple("r", 0, 0.0, CountingValues(k=417.0, x=2.0), 10.0), 0.0
    )
    assert [o.values["left.k"] for o in out] == [417.0]
    # the probe reads its own key; the scan read 1,000 window entries
    assert CountingValues.reads <= 2
