"""Stream tuples: the unit of data flowing through the system."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class StreamTuple:
    """One immutable stream element.

    The copy helpers below build their result positionally:
    ``dataclasses.replace`` walks the field list on every call, which
    is too slow for the dataplane (lint rule ``PERF001``).

    Attributes:
        stream_id: The stream this tuple belongs to.
        seq: Per-stream sequence number assigned by the source.
        created_at: Virtual time the source emitted the tuple; end-to-end
            latency is measured against this.
        values: Attribute name -> value.
        size: Serialised size in bytes (from the schema, possibly reduced
            by projection).
    """

    stream_id: str
    seq: int
    created_at: float
    values: dict[str, float]
    size: float

    def value(self, name: str) -> float:
        """Attribute accessor with a clear error on missing names."""
        try:
            return self.values[name]
        except KeyError as exc:
            raise KeyError(
                f"tuple of {self.stream_id} has no attribute {name!r}"
            ) from exc

    def project(self, names: list[str], size: float | None = None) -> "StreamTuple":
        """Return a copy keeping only ``names`` (optionally resized)."""
        kept = {n: self.values[n] for n in names}
        new_size = size if size is not None else self.size * len(kept) / max(
            1, len(self.values)
        )
        return StreamTuple(
            self.stream_id, self.seq, self.created_at, kept, new_size
        )

    def relabel(self, stream_id: str) -> "StreamTuple":
        """Return a copy carried under another stream id."""
        return StreamTuple(
            stream_id, self.seq, self.created_at, self.values, self.size
        )

    def with_values(self, **updates: float) -> "StreamTuple":
        """Return a copy with some attribute values replaced/added."""
        merged = dict(self.values)
        merged.update(updates)
        return StreamTuple(
            self.stream_id, self.seq, self.created_at, merged, self.size
        )
