"""Interval-based data-interest predicates.

A query's *data interest* on a stream is a conjunction of per-attribute
range constraints: ``price in [10, 50] AND symbol in [0, 99]``.  Each
constraint is an :class:`IntervalSet` (a union of disjoint closed
intervals), so interests are closed under both intersection (query
matching) and union (aggregation at dissemination-tree ancestors).
Attributes not mentioned are unconstrained.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True, order=True)
class Interval:
    """A closed interval ``[lo, hi]``; ``lo > hi`` would be invalid."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        """Length of the interval."""
        return self.hi - self.lo

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the closed interval."""
        return self.lo <= value <= self.hi

    def intersect(self, other: "Interval") -> "Interval | None":
        """Intersection with another interval, or ``None`` if disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two closed intervals share at least one point."""
        return max(self.lo, other.lo) <= min(self.hi, other.hi)

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval covering both (used when widening)."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))


class IntervalSet:
    """A normalised union of disjoint, sorted closed intervals."""

    __slots__ = ("_intervals", "_starts")

    def __init__(self, intervals: list[Interval] | None = None) -> None:
        self._intervals: tuple[Interval, ...] = self._normalise(intervals or [])
        # Sorted interval starts for O(log n) membership via bisect.
        self._starts: tuple[float, ...] = tuple(
            iv.lo for iv in self._intervals
        )

    @staticmethod
    def _normalise(intervals: list[Interval]) -> tuple[Interval, ...]:
        if not intervals:
            return ()
        ordered = sorted(intervals, key=lambda iv: (iv.lo, iv.hi))
        merged = [ordered[0]]
        for iv in ordered[1:]:
            last = merged[-1]
            if iv.lo <= last.hi:
                merged[-1] = Interval(last.lo, max(last.hi, iv.hi))
            else:
                merged.append(iv)
        return tuple(merged)

    # ------------------------------------------------------------------
    @classmethod
    def single(cls, lo: float, hi: float) -> "IntervalSet":
        """Convenience constructor for one interval."""
        return cls([Interval(lo, hi)])

    @property
    def intervals(self) -> tuple[Interval, ...]:
        """The disjoint sorted intervals."""
        return self._intervals

    @property
    def is_empty(self) -> bool:
        """Whether the set covers nothing."""
        return not self._intervals

    def __len__(self) -> int:
        return len(self._intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self) -> str:
        parts = ", ".join(f"[{iv.lo}, {iv.hi}]" for iv in self._intervals)
        return f"IntervalSet({parts})"

    # ------------------------------------------------------------------
    def contains(self, value: float) -> bool:
        """Membership test via bisect over the sorted interval starts.

        Intervals are disjoint and sorted, so the only interval that can
        contain ``value`` is the last one starting at or before it —
        found in O(log n) instead of the linear scan this replaced.
        """
        intervals = self._intervals
        if not intervals:
            return False
        if len(intervals) == 1:
            iv = intervals[0]
            return iv.lo <= value <= iv.hi
        index = bisect_right(self._starts, value)
        if index == 0:
            return False
        return value <= intervals[index - 1].hi

    def __contains__(self, value: float) -> bool:
        """``value in interval_set`` sugar for :meth:`contains`."""
        return self.contains(value)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Set union (normalised)."""
        return IntervalSet(list(self._intervals) + list(other._intervals))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """Set intersection via pairwise interval clipping."""
        out: list[Interval] = []
        for a in self._intervals:
            for b in other._intervals:
                clipped = a.intersect(b)
                if clipped is not None:
                    out.append(clipped)
        return IntervalSet(out)

    def covers(self, other: "IntervalSet") -> bool:
        """Whether every point of ``other`` lies inside ``self``."""
        return other.intersect(self) == other

    def total_width(self) -> float:
        """Sum of interval lengths (Lebesgue measure)."""
        return sum(iv.width for iv in self._intervals)

    def widen_to(self, max_intervals: int) -> "IntervalSet":
        """Reduce complexity to at most ``max_intervals`` by merging the
        closest interval pairs; the result is a superset of ``self``.

        This is the bounded-size interest summary used by ancestors: a
        coarser filter forwards strictly more data but never drops
        required tuples.
        """
        if max_intervals < 1:
            raise ValueError("max_intervals must be >= 1")
        intervals = list(self._intervals)
        while len(intervals) > max_intervals:
            gaps = [
                (intervals[i + 1].lo - intervals[i].hi, i)
                for i in range(len(intervals) - 1)
            ]
            __, i = min(gaps)
            intervals[i : i + 2] = [intervals[i].hull(intervals[i + 1])]
        return IntervalSet(intervals)


@dataclass(frozen=True)
class StreamInterest:
    """A query's interest in one stream: conjunctive range constraints.

    Attributes:
        stream_id: The stream constrained.
        constraints: Attribute name -> :class:`IntervalSet`.  Attributes
            absent from the mapping are unconstrained.
    """

    stream_id: str
    constraints: dict[str, IntervalSet] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Drop trivially-empty constraints early so is_empty is cheap.
        for name, ivs in self.constraints.items():
            if not isinstance(ivs, IntervalSet):
                raise TypeError(f"constraint {name!r} must be an IntervalSet")

    @classmethod
    def on(cls, stream_id: str, **ranges: tuple[float, float]) -> "StreamInterest":
        """Build an interest from keyword ``attr=(lo, hi)`` ranges.

        >>> StreamInterest.on("s", price=(10, 50)).matches_values({"price": 20})
        True
        """
        constraints = {
            name: IntervalSet.single(lo, hi) for name, (lo, hi) in ranges.items()
        }
        return cls(stream_id=stream_id, constraints=constraints)

    @property
    def is_empty(self) -> bool:
        """Whether any constraint is unsatisfiable."""
        return any(ivs.is_empty for ivs in self.constraints.values())

    def fingerprint(self) -> tuple:
        """Canonical, hashable structural shape of this interest.

        Constraints are listed in sorted attribute order (conjunction is
        commutative) with their normalised interval tuples, so two
        interests selecting the same data on the same stream always
        fingerprint equal — the key under which compiled kernels and
        shared filter prefixes are deduplicated.
        """
        return (
            self.stream_id,
            tuple(
                (name, self.constraints[name].intervals)
                for name in sorted(self.constraints)
            ),
        )

    def matches_values(self, values: dict[str, float]) -> bool:
        """Whether a tuple's values satisfy every constraint.

        Attributes absent from ``values`` are unconstrained; present
        ones are tested with the bisect-based :meth:`IntervalSet.contains`.
        """
        for name, ivs in self.constraints.items():
            value = values.get(name)
            if value is not None and value not in ivs:
                return False
        return True

    def intersect(self, other: "StreamInterest") -> "StreamInterest":
        """Conjunction of two interests on the same stream."""
        if self.stream_id != other.stream_id:
            raise ValueError("cannot intersect interests on different streams")
        merged: dict[str, IntervalSet] = dict(self.constraints)
        for name, ivs in other.constraints.items():
            if name in merged:
                merged[name] = merged[name].intersect(ivs)
            else:
                merged[name] = ivs
        return StreamInterest(self.stream_id, merged)

    def covers(self, other: "StreamInterest") -> bool:
        """Whether ``self`` forwards at least everything ``other`` needs.

        Only attributes constrained by ``self`` can exclude data; an
        attribute unconstrained in ``self`` covers any constraint in
        ``other``.
        """
        if self.stream_id != other.stream_id:
            return False
        for name, ivs in self.constraints.items():
            other_ivs = other.constraints.get(name)
            if other_ivs is None:
                # other is unconstrained here but self filters: not a cover
                if not ivs.is_empty:
                    return False
            elif not ivs.covers(other_ivs):
                return False
        return True
