"""Query plans and fragments.

A plan is a linear operator pipeline fed by one or more input streams
(joins and unions merge extra streams *inside* the pipeline).  Section
4.1 dynamically partitions a query "into multiple query fragments"
distributed to processors: a :class:`Fragment` is a contiguous slice of
the pipeline, and a plan can be cut at any set of operator boundaries.

Cost model: the expected CPU cost of one *plan input tuple* is the sum of
operator costs discounted by the cumulative selectivity of everything
upstream — the textbook pipelined cost that also defines the paper's
inherent complexity ``p_k``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.operators.base import Operator
from repro.engine.operators.filterop import FilterOperator
from repro.interest.predicates import StreamInterest
from repro.streams.tuples import StreamTuple


def pipeline_cost(operators: list[Operator]) -> float:
    """Expected CPU seconds per input tuple of an operator pipeline.

    Each operator's nominal cost is discounted by the cumulative
    selectivity of everything upstream of it (the last operator's own
    selectivity discounts nothing, so it is not read).
    """
    total = 0.0
    carried = 1.0
    for op in operators[:-1]:
        total += carried * op.cost_per_tuple
        carried *= op.selectivity
    return total + carried * operators[-1].cost_per_tuple


def pipeline_selectivity(operators: list[Operator]) -> float:
    """Expected output tuples per input tuple of an operator pipeline."""
    carried = 1.0
    for op in operators:
        carried *= op.selectivity
    return carried


class QueryPlan:
    """An ordered operator pipeline for one continuous query.

    Args:
        query_id: Owning query.
        input_streams: Stream ids feeding the head of the pipeline.
        operators: The pipeline, upstream first.
    """

    def __init__(
        self, query_id: str, input_streams: list[str], operators: list[Operator]
    ) -> None:
        if not operators:
            raise ValueError("a plan needs at least one operator")
        if not input_streams:
            raise ValueError("a plan needs at least one input stream")
        names = [op.name for op in operators]
        if len(names) != len(set(names)):
            raise ValueError("operator names must be unique within a plan")
        self.query_id = query_id
        self.input_streams = list(input_streams)
        self.operators = list(operators)

    def __len__(self) -> int:
        return len(self.operators)

    def fingerprints(self) -> tuple[tuple, ...]:
        """Per-operator canonical structural fingerprints, upstream first.

        The shared-computation optimizer aligns these sequences across
        colocated queries: the longest common prefix of two plans'
        fingerprints is exactly the pipeline segment one shared instance
        may evaluate for both queries.
        """
        return tuple(op.fingerprint() for op in self.operators)

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def cost_per_input_tuple(self) -> float:
        """Expected CPU seconds per plan-input tuple (= p_k per tuple)."""
        return pipeline_cost(self.operators)

    def output_selectivity(self) -> float:
        """Expected output tuples per input tuple for the whole plan."""
        return pipeline_selectivity(self.operators)

    def estimated_load(self, input_rate: float) -> float:
        """CPU seconds per second the plan consumes at ``input_rate``."""
        return input_rate * self.cost_per_input_tuple()

    # ------------------------------------------------------------------
    # Fragmentation
    # ------------------------------------------------------------------
    def split(self, cuts: list[int]) -> list["Fragment"]:
        """Cut the pipeline after the given operator indices.

        ``cuts=[1]`` on a 4-operator plan yields fragments ``ops[0:2]``
        and ``ops[2:4]``.  An empty cut list yields one fragment.
        """
        boundaries = sorted(set(cuts))
        for cut in boundaries:
            if not 0 <= cut < len(self.operators) - 1:
                raise ValueError(f"cut {cut} out of range for {len(self)} operators")
        fragments = []
        start = 0
        for index, cut in enumerate([*boundaries, len(self.operators) - 1]):
            ops = self.operators[start : cut + 1]
            fragments.append(
                Fragment(
                    fragment_id=f"{self.query_id}#f{index}",
                    query_id=self.query_id,
                    index=index,
                    operators=ops,
                )
            )
            start = cut + 1
        return fragments

    def as_single_fragment(self) -> "Fragment":
        """The whole plan as one fragment (no distribution)."""
        return self.split([])[0]


@dataclass
class Fragment:
    """A contiguous slice of a plan, the unit of intra-entity placement."""

    fragment_id: str
    query_id: str
    index: int
    operators: list[Operator] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.operators:
            raise ValueError("a fragment needs at least one operator")

    # ------------------------------------------------------------------
    def cost_for(self, tup: StreamTuple) -> float:
        """Expected CPU cost of pushing ``tup`` through this fragment.

        Downstream operators are discounted by upstream selectivities;
        stateful operators report tuple-dependent costs via ``cost()``.
        """
        total = 0.0
        carried = 1.0
        for op in self.operators:
            total += carried * op.cost(tup)
            carried *= op.selectivity
        return total

    def cost_per_input_tuple(self) -> float:
        """Expected CPU seconds per fragment-input tuple."""
        return pipeline_cost(self.operators)

    def selectivity(self) -> float:
        """Expected outputs per input across the fragment."""
        return pipeline_selectivity(self.operators)

    def estimated_load(self, input_rate: float) -> float:
        """CPU seconds/second at the given input rate."""
        return input_rate * self.cost_per_input_tuple()

    def cost_for_batch(self, batch: list[StreamTuple]) -> float:
        """Amortised CPU cost of pushing a whole batch through.

        The per-input expected cost is computed once and multiplied by
        the batch size: state-dependent per-tuple terms (join probes)
        are averaged into the operators' nominal costs instead of being
        probed tuple by tuple — that amortisation is the point of the
        batch path.
        """
        return len(batch) * self.cost_per_input_tuple()

    def run(self, tup: StreamTuple, now: float) -> list[StreamTuple]:
        """Push one tuple through the operator slice: a batch of one."""
        return self.run_batch([tup], now)

    def run_batch(
        self, batch: list[StreamTuple], now: float
    ) -> list[StreamTuple]:
        """Push a whole batch through the operator slice, fused.

        One intermediate list per *operator stage*: each operator's
        kernel consumes the full upstream batch in order.  Because every
        ``process_batch`` is cut-invariant, the output (and all window
        state evolution) does not depend on how the caller cut the
        tuple sequence into batches.
        """
        for op in self.operators:
            if not batch:
                return []
            batch = op.apply_batch(batch, now)
        return batch

    def leading_selection(self, stream_id: str) -> StreamInterest | None:
        """The interest the leading operator selects ``stream_id`` tuples
        by, when it is a :class:`FilterOperator` on that stream.

        A processor evaluates these for all its heads of a stream in
        one pass and hands each head its part via :meth:`run_selected`.
        ``None`` — another leading operator, or a filter passing this
        stream untouched — means the head runs whole.
        """
        head = self.operators[0]
        if type(head) is FilterOperator and head.interest.stream_id == stream_id:
            return head.interest
        return None

    def run_selected(
        self, batch: list[StreamTuple], kept: list[StreamTuple], now: float
    ) -> list[StreamTuple]:
        """:meth:`run_batch` of same-stream ``batch``, given ``kept``:
        what the leading selection (:meth:`leading_selection`) keeps of
        it, computed elsewhere.  Accounts it in the leading operator's
        statistics and pushes ``kept`` through the rest of the slice."""
        stats = self.operators[0].stats
        stats.tuples_in += len(batch)
        stats.tuples_out += len(kept)
        for op in self.operators[1:]:
            if not kept:
                return []
            kept = op.apply_batch(kept, now)
        return kept

    def reset_state(self) -> None:
        """Drop window state in every operator (fragment migration)."""
        for op in self.operators:
            op.reset_state()
