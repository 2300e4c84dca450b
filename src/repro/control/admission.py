"""Cost-model admission control for dynamic query arrivals.

The §3.2.2 allocation keeps every entity's load within a bounded factor
of the ideal (total/entities).  A long-running federation must defend
that invariant against arrivals, not just establish it at submission:
an arrival whose predicted load would push even the *best-case*
placement past the threshold is parked in a bounded queue and retried
as departures free capacity — or rejected outright when the queue is
full (the client gets an immediate answer instead of unbounded
queueing).

The policy is pure (loads in, verdict out), so the same code decides
admissions in the live control plane, the discrete-event simulator, and
the distributed coordinator.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.query.spec import QuerySpec

ADMIT = "admit"
DEFER = "defer"
REJECT = "reject"


def predicted_imbalance(loads: dict[str, float], new_load: float) -> float:
    """Max/ideal entity-load ratio after best-case placement.

    Optimistically places the arrival on the least-loaded entity; if
    even that violates the balance constraint, no placement can satisfy
    it and the arrival must wait.
    """
    if not loads:
        return 1.0
    values = list(loads.values())
    total = sum(values) + new_load
    ideal = total / len(values)
    if ideal <= 0:
        return 1.0
    peak = max(max(values), min(values) + new_load)
    return peak / ideal


def entity_loads(planner, without: Iterable[str] = ()) -> dict[str, float]:
    """Predicted CPU load per entity from the hosted queries' cost
    model (the vertex weights of §3.2.2), ``without`` those queries."""
    catalog = planner.catalog
    skip = set(without)
    return {
        entity_id: sum(
            hosted.spec.estimated_load(catalog)
            for query_id, hosted in entity.hosted.items()
            if query_id not in skip
        )
        for entity_id, entity in planner.entities.items()
    }


@dataclass
class PendingAdmission:
    """One arrival waiting in the admission queue."""

    spec: QuerySpec
    arrived_at: float


@dataclass
class AdmissionPolicy:
    """Balance-constrained admission with a bounded wait queue.

    Attributes:
        queue_limit: Deferred arrivals held at most (0 disables
            admission control entirely: everything admits immediately).
        imbalance_threshold: Max predicted max/ideal load ratio an
            admission may cause.
    """

    queue_limit: int = 0
    imbalance_threshold: float = 1.5
    queue: deque = field(default_factory=deque)

    @property
    def enabled(self) -> bool:
        return self.queue_limit > 0

    def decide(self, new_load: float, loads: dict[str, float]) -> str:
        """ADMIT, DEFER (queue has room), or REJECT (queue full)."""
        if not self.enabled:
            return ADMIT
        if predicted_imbalance(loads, new_load) <= self.imbalance_threshold:
            return ADMIT
        return DEFER if len(self.queue) < self.queue_limit else REJECT

    # ------------------------------------------------------------------
    def park(self, spec: QuerySpec, now: float) -> None:
        """Queue one deferred arrival (caller checked `decide`)."""
        self.queue.append(PendingAdmission(spec, now))

    def drain_admissible(
        self, loads: dict[str, float], catalog
    ) -> list[PendingAdmission]:
        """Pop every queued arrival the balance constraint now allows.

        FIFO with head-of-line blocking: admissions must not reorder a
        tenant's arrivals, and skipping the head in favour of a lighter
        later query would let heavy queries starve at the head forever
        without the caller noticing.  Each admission's load is added to
        the running picture so one drain round cannot overshoot.
        """
        admitted: list[PendingAdmission] = []
        working = dict(loads)
        while self.queue:
            head = self.queue[0]
            load = head.spec.estimated_load(catalog)
            if (
                predicted_imbalance(working, load)
                > self.imbalance_threshold
            ):
                break
            self.queue.popleft()
            admitted.append(head)
            # best-case bookkeeping: charge the least-loaded entity
            lightest = min(working, key=working.get)
            working[lightest] += load
            loads[lightest] = working[lightest]
        return admitted
