"""Projection operator: keep a subset of attributes, shrinking tuples."""

from __future__ import annotations

from repro.engine.operators.base import Operator
from repro.streams.tuples import StreamTuple


class ProjectOperator(Operator):
    """Project tuples down to ``attributes``.

    Projection reduces tuple *size*, which matters to dissemination: the
    paper's ancestors may "transform" data before forwarding, and the
    byte savings are what E4 measures.
    """

    def __init__(
        self,
        name: str,
        attributes: list[str],
        *,
        bytes_per_attribute: float = 8.0,
        cost_per_tuple: float = 2e-5,
    ) -> None:
        super().__init__(
            name, cost_per_tuple=cost_per_tuple, estimated_selectivity=1.0
        )
        if not attributes:
            raise ValueError("projection must keep at least one attribute")
        self.attributes = list(attributes)
        self.bytes_per_attribute = bytes_per_attribute

    def fingerprint(self) -> tuple:
        """Structural shape: kept attributes (ordered) and output sizing."""
        return (
            "project",
            tuple(self.attributes),
            self.bytes_per_attribute,
        )

    def process_batch(
        self, batch: list[StreamTuple], now: float
    ) -> list[StreamTuple]:
        """Project each tuple down to the kept attributes it carries."""
        attributes = self.attributes
        bytes_per_attribute = self.bytes_per_attribute
        out: list[StreamTuple] = []
        append = out.append
        for tup in batch:
            values = tup.values
            kept = [a for a in attributes if a in values]
            if not kept:
                append(tup)
            else:
                append(
                    tup.project(kept, size=bytes_per_attribute * len(kept))
                )
        return out
