"""Operator base class and per-operator statistics.

Operators are push-based and batch-first: ``process_batch(batch, now)``
consumes a list of input tuples in order and returns the concatenated
outputs.  It is the *one* kernel an operator implements — a single
tuple is a batch of one, which is how the simulator and the partition
stages feed it.  Every operator declares a nominal CPU cost per input
tuple and an estimated selectivity (expected outputs per input); both
feed the placement and ordering optimisers, and both are tracked
empirically so the Adaptation Module (§4.2) can react when reality
drifts from the estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.streams.tuples import StreamTuple


@dataclass(slots=True)
class OperatorStats:
    """Observed input/output counts for one operator instance."""

    tuples_in: int = 0
    tuples_out: int = 0

    @property
    def observed_selectivity(self) -> float:
        """Outputs per input observed so far (estimate when no input yet)."""
        if not self.tuples_in:
            return float("nan")
        return self.tuples_out / self.tuples_in


class Operator:
    """Base class for all stream operators.

    A subclass implements :meth:`process_batch` and nothing else of the
    dataplane: :meth:`process`, :meth:`apply` and :meth:`apply_batch`
    live here only and all funnel into that one kernel.

    Args:
        name: Instance name (unique within its plan).
        cost_per_tuple: Nominal CPU seconds charged per input tuple.
        estimated_selectivity: A-priori expected outputs per input.
    """

    def __init__(
        self,
        name: str,
        *,
        cost_per_tuple: float = 1e-4,
        estimated_selectivity: float = 1.0,
    ) -> None:
        if cost_per_tuple < 0:
            raise ValueError("cost_per_tuple must be non-negative")
        self.name = name
        self.cost_per_tuple = cost_per_tuple
        self.estimated_selectivity = estimated_selectivity
        self.stats = OperatorStats()

    # ------------------------------------------------------------------
    def process_batch(
        self, batch: list[StreamTuple], now: float
    ) -> list[StreamTuple]:
        """Consume a batch in order; must be implemented by subclasses.

        Correctness contract (*cut-invariance*): outputs and operator
        state depend only on the tuple sequence and the ``now`` each
        tuple is processed under, never on where the sequence is cut
        into batches — feeding ``[a, b, c]`` must equal feeding ``[a]``
        then ``[b, c]``.  Stateful kernels therefore advance their
        windows tuple by tuple *inside* the loop.
        """
        raise NotImplementedError

    def process(self, tup: StreamTuple, now: float) -> list[StreamTuple]:
        """Consume one tuple: a batch of one.  Not to be overridden."""
        return self.process_batch([tup], now)

    def cost(self, tup: StreamTuple) -> float:
        """CPU seconds this input tuple costs (default: the nominal cost)."""
        return self.cost_per_tuple

    def apply_batch(
        self, batch: list[StreamTuple], now: float
    ) -> list[StreamTuple]:
        """``process_batch`` wrapped with (bulk) statistics accounting."""
        self.stats.tuples_in += len(batch)
        out = self.process_batch(batch, now)
        self.stats.tuples_out += len(out)
        return out

    def apply(self, tup: StreamTuple, now: float) -> list[StreamTuple]:
        """``apply_batch`` on a batch of one.  Not to be overridden."""
        return self.apply_batch([tup], now)

    @property
    def selectivity(self) -> float:
        """Best current selectivity: observed if available, else estimate."""
        observed = self.stats.observed_selectivity
        if observed != observed:  # NaN: no observations yet
            return self.estimated_selectivity
        return observed

    def fingerprint(self) -> tuple:
        """Canonical structural fingerprint of this operator.

        Two operators with equal fingerprints are guaranteed to produce
        identical output sequences on identical input sequences, so the
        shared-computation optimizer may evaluate one instance on behalf
        of both.  The base fingerprint embeds the instance name (which
        carries the owning query id) and therefore never matches across
        queries — operators must opt in to sharing by overriding this
        with a name-free structural shape.
        """
        return ("opaque", type(self).__name__, self.name)

    def advance_window(self, window_index: int) -> list[StreamTuple]:
        """Advance to ``window_index``, emitting any closing outputs.

        Punctuation hook for partitioned execution: the partition router
        broadcasts window boundaries so every parallel clone of a
        windowed operator closes its window at the same global point.
        Stateless operators have no window — the default is a no-op.
        """
        return []

    def reset_state(self) -> None:
        """Discard operator state (windows); used when a fragment moves."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
