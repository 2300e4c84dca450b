"""Deterministic Bernoulli sampling."""

from __future__ import annotations

import zlib

from repro.engine.operators.base import Operator
from repro.streams.tuples import StreamTuple


class SampleOperator(Operator):
    """Keep each tuple with fixed ``probability``.

    The keep/drop decision hashes ``(name, stream, seq)`` so results are
    reproducible and two samplers with different names decorrelate.
    """

    def __init__(
        self,
        name: str,
        probability: float,
        *,
        cost_per_tuple: float = 1e-5,
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        super().__init__(
            name,
            cost_per_tuple=cost_per_tuple,
            estimated_selectivity=probability,
        )
        self.probability = probability

    def process_batch(
        self, batch: list[StreamTuple], now: float
    ) -> list[StreamTuple]:
        """Hash-draw every tuple in one comprehension."""
        name = self.name
        threshold = self.probability * 2**32
        crc32 = zlib.crc32
        return [
            tup
            for tup in batch
            if (crc32(f"{name}|{tup.stream_id}|{tup.seq}".encode()) & 0xFFFFFFFF)
            < threshold
        ]
