"""The differential matrix: where a query runs never changes what it returns.

Allocation, delegation, placement and adaptation (§3.2.2, §4) decide
*where* a query runs.  This module states that they never change *what*
it returns, as one generated matrix of cells:

* **leg** — ``sim`` (the discrete-event simulator), ``live`` (the
  asyncio runtime), ``distributed`` (worker processes over TCP);
* **plan** — ``plain`` (``parity_workload``: selections),
  ``partitioned`` (``partition_workload``: grouped aggregates split
  four ways), ``shared`` (``sharing_workload``: colocated queries behind
  one shared prefix);
* **lifecycle** — ``static``; ``migrated`` (an ``Adaptation`` loop tuned
  to move queries and rebalance partitions); ``churned`` (a churn
  script: one arrival that leaves again, one departure); ``crashed``.

Every cell has one reference — the simulator on the same workload and
seed, unpartitioned, unshared, static — and one oracle: per query, the
set of ``(query_id, stream_id, seq)`` result keys.  A churned cell is
judged on the queries alive for the whole run.  The runtime suites hold
runs the matrix does not make (other durations, batch sizes, worker
counts) to the same oracle through ``assert_matches_reference``.

A cell is either claimed in ``GENERATED`` and runs below, or named in
``UNSUPPORTED`` with its reason and the ROADMAP item that would lift it;
a guard test fails on a cell that is both or neither.  Without the
``slow`` mark each generated cell runs one seed; the ``slow`` sweep adds
the seeds (and worker counts) in ``SWEEP``.

The operator-level property suites (``test_batch_equivalence``,
``test_partitioned_equivalence``, ``test_sharing_equivalence``) stay:
they shrink a failure to a minimal tuple sequence, which a federation
run cannot do.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cache, partial
from itertools import product

import pytest

from repro.analysis.invariants import audit_federation
from repro.control import Control
from repro.control.events import REGISTER, TEARDOWN, ControlEvent
from repro.core.system import FederatedSystem
from repro.distributed import DistributedCoordinator
from repro.live import Adaptation, AdaptationSettings, LiveRuntime, LiveSettings
from repro.workloads import parity_workload, partition_workload, sharing_workload

LEGS = ("sim", "live", "distributed")
PLANS = {
    "plain": parity_workload,
    "partitioned": partition_workload,
    "shared": sharing_workload,
}
LIFECYCLES = ("static", "migrated", "churned", "crashed")
ALL_PLANS = tuple(PLANS)

DURATION = 1.5
SETTINGS = LiveSettings(duration=DURATION, batch_size=4)
SEED = 7
# The fewest workers whose placement sends batches between them (with
# two, every tree edge of these four-entity plans stays on one worker).
WORKERS = 3
# Rounds that move whatever the repartitioner would move and rebalance
# any partition skew at all.
MOVE_EAGERLY = AdaptationSettings(
    period=0.5,
    imbalance_threshold=1.01,
    max_imbalance=1.0,
    partition_skew_threshold=1.0,
)

# The cells claimed to work: (leg, lifecycle) -> plans.
GENERATED = {
    ("sim", "static"): ALL_PLANS,
    ("sim", "churned"): ("plain", "shared"),
    ("live", "static"): ALL_PLANS,
    ("live", "migrated"): ALL_PLANS,
    ("live", "churned"): ALL_PLANS,
    ("distributed", "static"): ALL_PLANS,
}


@dataclass(frozen=True)
class Unsupported:
    """Cells not claimed to work, why, and the ROADMAP item that would
    lift them."""

    legs: tuple[str, ...]
    plans: tuple[str, ...]
    lifecycles: tuple[str, ...]
    reason: str
    roadmap: str

    def cells(self) -> set[tuple[str, str, str]]:
        return set(product(self.legs, self.plans, self.lifecycles))


# A workload outside the three plans that the table still speaks for.
WINDOW_JOIN = "window-join"

UNSUPPORTED = (
    Unsupported(
        ("sim", "live"),
        ALL_PLANS,
        ("crashed",),
        "recovery re-homes a crashed entity's queries, but its in-flight "
        "tuples and operator state are lost: results are a subset of "
        "the reference, not equal to it",
        "5(b)",
    ),
    Unsupported(
        ("distributed",),
        ALL_PLANS,
        ("migrated", "churned", "crashed"),
        "the distributed leg is launch-run-stop: no adaptation loop, "
        "control plane or fault handling after START",
        "5(a)",
    ),
    Unsupported(
        ("sim",),
        ALL_PLANS,
        ("migrated",),
        "the simulator has no online migration; Adaptation is a live "
        "service",
        "7",
    ),
    Unsupported(
        ("sim",),
        ("partitioned",),
        ("churned",),
        "an arrival or departure redeploys the whole entity "
        "(FederatedSystem.submit_one / withdraw), which rebuilds the "
        "colocated queries' fragments and drops their aggregate windows "
        "(seed 7: 20 of 127 keys missing, none extra)",
        "7",
    ),
    Unsupported(
        ("live", "distributed"),
        (WINDOW_JOIN,),
        LIFECYCLES,
        "window joins expire on the processing clock, so their output "
        "depends on how the two inputs interleave",
        "1(a)",
    ),
)

# Slow runs on top of SEED: twelve plain live seeds, plain distributed
# runs on two to eight workers, and three seeds per migrated or churned
# cell, where every seed moves or churns.  Distributed cells take
# (seed, workers).
SWEEP = {
    ("live", "plain", "static"): (2, 3, 5, 11, 13, 17, 19, 23, 29, 31, 37),
    ("distributed", "plain", "static"): (
        (3, 2), (7, 4), (11, 2), (11, 8), (19, 2), (29, 3),
    ),
    ("sim", "partitioned", "static"): (2, 19, 29),
    ("live", "partitioned", "static"): (2, 19, 29),
    ("sim", "shared", "static"): (1, 2, 9, 19, 29),
    ("live", "shared", "static"): (2, 4, 19, 29),
    ("distributed", "shared", "static"): ((7, 2), (29, 3)),
    **{
        ("live", plan, lifecycle): (2, 3, 29)
        for plan in ALL_PLANS
        for lifecycle in ("migrated", "churned")
    },
    ("sim", "plain", "churned"): (2, 3, 29),
    ("sim", "shared", "churned"): (2, 3, 29),
}


def generated_cells() -> set[tuple[str, str, str]]:
    return {
        (leg, plan, lifecycle)
        for (leg, lifecycle), plans in GENERATED.items()
        for plan in plans
    }


def cases():
    """One param per generated cell and run; the SWEEP runs are slow."""
    for cell in sorted(generated_cells()):
        distributed = cell[0] == "distributed"
        fast = (SEED, WORKERS) if distributed else SEED
        for index, run in enumerate((fast, *SWEEP.get(cell, ()))):
            seed, workers = run if distributed else (run, None)
            name = "-".join((*cell, f"s{seed}"))
            if distributed:
                name += f"-w{workers}"
            yield pytest.param(
                *cell,
                seed,
                workers,
                id=name,
                marks=pytest.mark.slow if index else (),
            )


# ----------------------------------------------------------------------
# The oracle and its reference
# ----------------------------------------------------------------------
def result_keys(results, query_ids):
    """The oracle: ``(query_id, stream_id, seq)`` of every result of
    the given queries."""
    return {
        (query_id, tup.stream_id, tup.seq)
        for query_id, tuples in results.items()
        if query_id in query_ids
        for tup in tuples
    }


def churn(queries):
    """One arrival (a copy of the first query) that leaves again, and
    the departure of the second query."""
    late = replace(queries[0], query_id=f"{queries[0].query_id}.late")
    return (
        ControlEvent(at=0.4, action=REGISTER, spec=late),
        ControlEvent(at=0.6, action=TEARDOWN, query_id=queries[1].query_id),
        ControlEvent(at=1.0, action=TEARDOWN, query_id=late.query_id),
    )


def simulate(catalog, config, queries, script=(), duration=DURATION):
    """The simulator's results; a churn script goes through its online
    submission path."""
    system = FederatedSystem(catalog, config)
    system.submit(queries)
    results = system.collect_results()
    for event in script:
        if event.action == REGISTER:
            change = partial(system.submit_one, event.spec)
        else:
            change = partial(system.withdraw, event.query_id)
        system.sim.schedule_at(event.at, change)
    system.run(duration=duration)
    system.sim.run()  # drain in-flight tuples
    return results


@cache
def reference(plan, seed, duration=DURATION):
    """The simulator, same workload and seed, unpartitioned, unshared,
    static."""
    catalog, config, queries = PLANS[plan](seed)
    config = replace(config, partition_parallelism=1, shared_execution=False)
    return simulate(catalog, config, queries, duration=duration)


def assert_matches_reference(plan, seed, results, script=(), duration=DURATION):
    """Apply the oracle: the plan's queries alive for the whole run
    deliver exactly the reference's result keys."""
    __, __, queries = PLANS[plan](seed)
    alive = {q.query_id for q in queries} - {
        e.query_id for e in script if e.action == TEARDOWN
    }
    expected = result_keys(reference(plan, seed, duration), alive)
    assert expected, "the reference delivered no result"
    got = result_keys(results, alive)
    assert got == expected, (
        f"{len(expected - got)} missing, {len(got - expected)} extra"
    )


# ----------------------------------------------------------------------
# The legs
# ----------------------------------------------------------------------
def run_live(catalog, config, queries, lifecycle, script):
    services = {
        "static": [],
        "migrated": [Adaptation(MOVE_EAGERLY)],
        "churned": [Adaptation(), Control(events=script)],
    }[lifecycle]
    runtime = LiveRuntime(catalog, config, SETTINGS, services=services)
    runtime.submit(queries)
    report = runtime.run()
    assert report.dropped_tuples == 0
    assert report.negative_latency_samples == 0
    if lifecycle == "migrated":
        adaptation = report.adaptation
        assert adaptation.queries_migrated + adaptation.partition_rebalances
        assert adaptation.audit_violations == 0
        if config.shared_execution:
            assert adaptation.reshares
    return runtime.results


def run_distributed(catalog, config, queries, workers):
    coordinator = DistributedCoordinator(
        catalog, config, queries, SETTINGS, workers=workers
    )
    report = coordinator.run()
    assert report.dropped_tuples == 0
    assert report.negative_latency_samples == 0
    assert coordinator.violations == []
    if coordinator.required_links:  # batches really crossed sockets
        assert sum(m["sent"] for m in coordinator.worker_metrics.values())
    return coordinator.results


@pytest.mark.parametrize(("leg", "plan", "lifecycle", "seed", "workers"), cases())
def test_cell(leg, plan, lifecycle, seed, workers):
    catalog, config, queries = PLANS[plan](seed)
    script = churn(queries) if lifecycle == "churned" else ()
    if leg == "sim":
        results = simulate(catalog, config, queries, script)
    elif leg == "live":
        results = run_live(catalog, config, queries, lifecycle, script)
    else:
        results = run_distributed(catalog, config, queries, workers)
    if script:
        assert results.get(script[0].spec.query_id), "the arrival never ran"
    assert_matches_reference(plan, seed, results, script)


# ----------------------------------------------------------------------
# The matrix itself
# ----------------------------------------------------------------------
def test_every_cell_is_generated_or_tabled():
    generated = generated_cells()
    tabled = set().union(*(row.cells() for row in UNSUPPORTED))
    cells = set(product(LEGS, PLANS, LIFECYCLES))
    assert len(cells) == 36
    both = sorted(cells & generated & tabled)
    neither = sorted(cells - generated - tabled)
    assert both == [] and neither == [], (both, neither)
    assert generated <= cells
    assert tabled <= cells | set(product(LEGS, [WINDOW_JOIN], LIFECYCLES))
    assert set(SWEEP) <= generated


def test_every_table_row_names_a_reason_and_a_roadmap_item():
    for row in UNSUPPORTED:
        assert row.cells() and row.reason
        assert re.fullmatch(r"[0-9]+(\([a-z]\))?", row.roadmap), row


@pytest.mark.parametrize("plan", ALL_PLANS)
def test_plan_deploys_what_it_names(plan):
    """A partitioned plan splits a stage and a shared plan forms a group
    — else its cells would compare the reference with itself."""
    catalog, config, queries = PLANS[plan](SEED)
    planner = FederatedSystem(catalog, config)
    planner.submit(queries)
    entities = planner.entities.values()
    partitioned = any(
        hosted.partition for entity in entities for hosted in entity.hosted.values()
    )
    shared = any(entity.shared for entity in entities)
    assert (partitioned, shared) == (plan == "partitioned", plan == "shared")
    assert audit_federation(planner) == []
