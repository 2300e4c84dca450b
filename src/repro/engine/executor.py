"""Fragment execution on simulated processors.

A :class:`LocalEngine` hosts fragment runtimes on one processor.  Every
ingested tuple is charged its fragment CPU cost on the processor's FIFO
queue; when the work item completes, the fragment's outputs are handed to
the runtime's downstream callback (another processor's engine, the entity
gateway, or the client sink).  Queueing delay therefore emerges from load
exactly as §4.1 describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.engine.plan import Fragment
from repro.simulation.processor import SimProcessor
from repro.simulation.simulator import Simulator
from repro.streams.tuples import StreamTuple

Downstream = Callable[[StreamTuple], None]


@dataclass
class FragmentRuntime:
    """A fragment installed on a processor with a downstream hookup."""

    fragment: Fragment
    downstream: Downstream | None = None
    tuples_in: int = 0
    tuples_out: int = 0
    busy_cost: float = 0.0


class LocalEngine:
    """All fragments hosted on one simulated processor."""

    def __init__(self, sim: Simulator, processor: SimProcessor) -> None:
        self.sim = sim
        self.processor = processor
        self._runtimes: dict[str, FragmentRuntime] = {}

    # ------------------------------------------------------------------
    @property
    def fragment_ids(self) -> list[str]:
        """Ids of currently installed fragments."""
        return list(self._runtimes)

    def runtime(self, fragment_id: str) -> FragmentRuntime:
        """Look up an installed fragment runtime."""
        return self._runtimes[fragment_id]

    def install(
        self, fragment: Fragment, downstream: Downstream | None = None
    ) -> FragmentRuntime:
        """Install a fragment; replaces any previous same-id install."""
        runtime = FragmentRuntime(fragment=fragment, downstream=downstream)
        self._runtimes[fragment.fragment_id] = runtime
        return runtime

    def uninstall(self, fragment_id: str) -> Fragment | None:
        """Remove a fragment (state kept — migration decides to reset)."""
        runtime = self._runtimes.pop(fragment_id, None)
        return runtime.fragment if runtime else None

    def estimated_load(self, input_rates: dict[str, float]) -> float:
        """CPU sec/sec across installed fragments given per-fragment rates."""
        return sum(
            runtime.fragment.estimated_load(input_rates.get(fid, 0.0))
            for fid, runtime in self._runtimes.items()
        )

    # ------------------------------------------------------------------
    def ingest(
        self,
        fragment_id: str,
        tup: StreamTuple,
        downstream: Downstream | None = None,
    ) -> None:
        """Feed one tuple to a fragment; outputs flow after CPU service.

        ``downstream`` overrides the runtime's wiring for this tuple
        only (the Adaptation Module routes per tuple).  Unknown fragment
        ids are ignored (the tuple raced a migration); the caller's
        routing table will catch up on its next refresh.
        """
        runtime = self._runtimes.get(fragment_id)
        if runtime is None:
            return
        runtime.tuples_in += 1
        cost = runtime.fragment.cost_for(tup)
        runtime.busy_cost += cost
        # Operator state must advance in arrival order, so the chain runs
        # now; the CPU charge delays only the *visibility* of outputs.
        outputs = runtime.fragment.run(tup, self.sim.now)

        def complete() -> None:
            runtime.tuples_out += len(outputs)
            target = downstream if downstream is not None else runtime.downstream
            if target is not None:
                for out in outputs:
                    target(out)

        self.processor.submit(cost, on_done=complete, tag=fragment_id)
