"""Selection operator driven by a data-interest predicate."""

from __future__ import annotations

from repro.engine.operators.base import Operator
from repro.interest.compiled import MatchFn, compile_interest
from repro.interest.predicates import StreamInterest
from repro.streams.tuples import StreamTuple


class FilterOperator(Operator):
    """Keep tuples whose values satisfy a :class:`StreamInterest`.

    The same predicate model expresses query selections and the early
    filters installed at dissemination-tree ancestors, so a query's
    interest literally *is* its leading filter.  The interest is
    compiled once (see :mod:`repro.interest.compiled`) into the
    codegen'd kernel the batch loop runs.
    """

    def __init__(
        self,
        name: str,
        interest: StreamInterest,
        *,
        cost_per_tuple: float = 5e-5,
        estimated_selectivity: float | None = None,
    ) -> None:
        super().__init__(
            name,
            cost_per_tuple=cost_per_tuple,
            estimated_selectivity=(
                estimated_selectivity if estimated_selectivity is not None else 0.5
            ),
        )
        self._interest = interest
        self._match: MatchFn = compile_interest(interest)

    @property
    def interest(self) -> StreamInterest:
        """The selection predicate (reassigning recompiles the kernel)."""
        return self._interest

    @interest.setter
    def interest(self, interest: StreamInterest) -> None:
        self._interest = interest
        self._match = compile_interest(interest)

    def fingerprint(self) -> tuple:
        """Structural shape: the interest's canonical constraint tuple.

        Constraint order is normalised inside the interest fingerprint
        (conjunction commutes), so equal selections across different
        queries fingerprint equal and can share one evaluation.
        """
        return ("filter", *self._interest.fingerprint())

    def process_batch(
        self, batch: list[StreamTuple], now: float
    ) -> list[StreamTuple]:
        """One comprehension over the compiled predicate.

        Tuples of other streams pass through untouched (a filter
        constrains only its own stream).
        """
        stream_id = self._interest.stream_id
        match = self._match
        return [
            tup
            for tup in batch
            if tup.stream_id != stream_id or match(tup.values)
        ]
