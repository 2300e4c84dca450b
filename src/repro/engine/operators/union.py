"""Union operator: merge several input streams into one output stream."""

from __future__ import annotations

from repro.engine.operators.base import Operator
from repro.streams.tuples import StreamTuple


class UnionOperator(Operator):
    """Pass tuples from any of ``input_streams`` through, relabelled.

    Used for multi-exchange queries ("all trades of symbol X on any
    exchange"): one downstream chain consumes a single merged stream.
    """

    def __init__(
        self,
        name: str,
        input_streams: list[str],
        *,
        cost_per_tuple: float = 1e-5,
    ) -> None:
        super().__init__(
            name, cost_per_tuple=cost_per_tuple, estimated_selectivity=1.0
        )
        if len(input_streams) < 2:
            raise ValueError("union needs at least two input streams")
        self.input_streams = list(input_streams)
        self._out_stream = f"{name}.out"

    def fingerprint(self) -> tuple:
        """Structural shape: the merged stream set (order-free).

        Relabelling depends only on membership, so unions over the same
        streams in any declaration order fingerprint equal.
        """
        return ("union", tuple(sorted(self.input_streams)))

    def process_batch(
        self, batch: list[StreamTuple], now: float
    ) -> list[StreamTuple]:
        """Relabel matching tuples in one comprehension."""
        streams = self.input_streams
        out_id = self._out_stream
        return [
            tup
            if tup.stream_id not in streams
            else tup.relabel(out_id)
            for tup in batch
        ]
