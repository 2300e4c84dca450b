"""Timed runs, wall-clock latency stamps and repeat statistics.

Everything here drives the system through the names listed in
``perf/README.md`` ("measurement seam"): a runtime is built by the
caller, this module only wraps two or three public methods *on the
instance* to find the edges of the timed region and to stamp emissions
and results with the wall clock.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import sys
import time
from bisect import bisect_left
from dataclasses import dataclass, field

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
HOOK_DIR = os.path.join(REPO_ROOT, "perf", "workerhook")
DATA_SEED_ENV = "PERF_DATA_SEED"

if SRC_DIR not in sys.path:
    sys.path.insert(0, SRC_DIR)


# ----------------------------------------------------------------------
# Input seeding
# ----------------------------------------------------------------------
def reseed_sources(runtime, seed: int) -> None:
    """Make ``--seed`` choose the *data*, not the federation.

    The planner's simulator RNG draws the source trace (arrival gaps
    and attribute values) when ``run()`` records it.  Re-seeding it
    after ``submit()`` keeps topology, allocation, placement and
    dissemination trees — planned under the workload's fixed structure
    seed — identical for every ``--seed``, so timing metrics are
    comparable across seeds while every tuple differs.  Spawned
    workers apply the same call through ``workerhook/sitecustomize.py``.
    """
    runtime.planner.sim.rng.seed(seed)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summarize(values: list[float], *, better: str) -> dict:
    """Best-of-N with the median and IQR of the repeats for the record.

    Contention on a shared box only ever slows a run, so the best
    repeat (max of a rate, min of a time) is the estimator; ``median``
    and ``iqr`` show how far the repeats were from each other.
    """
    best = max(values) if better == "higher" else min(values)
    if len(values) >= 2:
        q1, __, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    return {
        "value": best,
        "n": len(values),
        "median": statistics.median(values),
        "iqr": iqr,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def children_cpu() -> float:
    """CPU seconds (user + system) of every waited child so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# ----------------------------------------------------------------------
# Timed runs
# ----------------------------------------------------------------------
COUNT_FIELDS = (
    "tuples_ingested",
    "tuples_delivered",
    "results",
    "filtered_edges",
    "forwarded_edges",
)


@dataclass
class Sample:
    """One run of one leg: its timings, counts and collected results."""

    wall_s: float
    cpu_s: float
    setup_s: float
    report: object
    results: dict | None
    handle: object = None  # the LiveRuntime / DistributedCoordinator
    entered: float = 0.0  # perf_counter around run(), distributed leg
    left: float = 0.0

    def release(self) -> None:
        """Drop the finished run's runtime and results."""
        self.results = None
        self.handle = None
        gc.collect()

    @property
    def counts(self) -> dict[str, int]:
        return {name: getattr(self.report, name) for name in COUNT_FIELDS}

    @property
    def ingest_tps(self) -> float:
        return self.report.tuples_ingested / self.wall_s

    @property
    def cpu_us_per_tuple(self) -> float:
        return 1e6 * self.cpu_s / self.report.tuples_ingested


def timed_live_run(make_runtime) -> Sample:
    """Build a fresh runtime and run it, timing the replay region.

    The timed region is ``report.wall_seconds``: it opens at
    ``metrics.start_clock`` (after planning, trace recording and
    dataflow build) and closes at ``metrics.stop_clock``.  CPU time is
    sampled at the same two edges; garbage is collected and the heap
    frozen right before the region opens, so the collector neither
    walks the recorded trace nor fires on another repeat's garbage.
    Everything else between entry and exit is set-up.
    """
    entered = time.perf_counter()
    runtime = make_runtime()
    metrics = runtime.metrics
    cpu = [0.0, 0.0]
    start_clock, stop_clock = metrics.start_clock, metrics.stop_clock

    def start() -> None:
        gc.collect()
        gc.freeze()
        cpu[0] = time.process_time()
        start_clock()

    def stop() -> None:
        stop_clock()
        cpu[1] = time.process_time()

    metrics.start_clock, metrics.stop_clock = start, stop
    try:
        report = runtime.run()
    finally:
        gc.unfreeze()
    total = time.perf_counter() - entered
    return Sample(
        wall_s=report.wall_seconds,
        cpu_s=cpu[1] - cpu[0],
        setup_s=total - report.wall_seconds,
        report=report,
        results=runtime.results,
        handle=runtime,
    )


def timed_distributed_run(make_coordinator, seed: int) -> Sample:
    """Spawn workers, run the federation across them, time it.

    ``report.wall_seconds`` spans START -> last BYE on the coordinator;
    spawn, planning, mesh set-up and process reaping are set-up.  Worker
    CPU cannot be windowed from outside, so CPU is the whole ``run()``:
    this process plus its reaped children.
    """
    saved = {k: os.environ.get(k) for k in ("PYTHONPATH", DATA_SEED_ENV)}
    existing = saved["PYTHONPATH"]
    os.environ["PYTHONPATH"] = (
        HOOK_DIR if not existing else HOOK_DIR + os.pathsep + existing
    )
    os.environ[DATA_SEED_ENV] = str(seed)
    gc.collect()
    try:
        entered = time.perf_counter()
        coordinator = make_coordinator()
        cpu_before = time.process_time() + children_cpu()
        run_entered = time.perf_counter()
        report = coordinator.run()
        left = time.perf_counter()
        cpu_after = time.process_time() + children_cpu()
        total = left - entered
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return Sample(
        wall_s=report.wall_seconds,
        cpu_s=cpu_after - cpu_before,
        setup_s=total - report.wall_seconds,
        report=report,
        results=coordinator.results,
        handle=coordinator,
        entered=run_entered,
        left=left,
    )


# ----------------------------------------------------------------------
# Wall-clock latency of a paced (open-loop) run
# ----------------------------------------------------------------------
@dataclass
class LatencyStamps:
    """Emission and result wall-clock stamps of one paced run."""

    time_scale: float
    emit_virtual: list[float] = field(default_factory=list)
    emit_wall: list[float] = field(default_factory=list)
    result_created: list[float] = field(default_factory=list)
    result_wall: list[float] = field(default_factory=list)
    wall_started: float = 0.0

    def latencies_ms(self) -> list[float]:
        """Sorted emission -> collection delays.

        Only results that still are a source tuple (selections) are
        stamped: each is matched to the emission with its ``created_at``.
        A join result carries the *older* partner's time and an
        aggregate its window end, so the last event that contributed to
        them cannot be told from outside.
        """
        out = []
        last = len(self.emit_virtual) - 1
        for created, wall in zip(self.result_created, self.result_wall):
            index = min(last, bisect_left(self.emit_virtual, created))
            out.append(1e3 * (wall - self.emit_wall[index]))
        out.sort()
        return out

    def due_latencies_ms(self) -> list[float]:
        """Sorted delays from when each tuple was *due* to be emitted,
        which charges generator lag to the results it delayed."""
        base, scale = self.wall_started, self.time_scale
        return sorted(
            1e3 * (wall - (base + created * scale))
            for created, wall in zip(self.result_created, self.result_wall)
        )

    def feed_lag_ms(self) -> list[float]:
        """Sorted lateness of every emission against its schedule."""
        base, scale = self.wall_started, self.time_scale
        return sorted(
            1e3 * (wall - (base + virtual * scale))
            for virtual, wall in zip(self.emit_virtual, self.emit_wall)
        )


def stamp_latency(runtime) -> LatencyStamps:
    """Wrap ``record_ingest``/``record_result`` on this runtime's
    metrics so every emission and every collected result carries a
    ``perf_counter`` stamp.  Call before ``run()``."""
    metrics = runtime.metrics
    stamps = LatencyStamps(time_scale=runtime.settings.time_scale)
    record_ingest, record_result = metrics.record_ingest, metrics.record_result
    clock = time.perf_counter
    emit_virtual, emit_wall = stamps.emit_virtual, stamps.emit_wall
    result_created, result_wall = stamps.result_created, stamps.result_wall
    sources = {schema.stream_id for schema in runtime.catalog.schemas()}

    def ingest(count: int = 1) -> None:
        record_ingest(count)
        emit_virtual.append(runtime.dataflow.clock.now)
        emit_wall.append(clock())

    def result(query_id, tup, virtual_now) -> None:
        record_result(query_id, tup, virtual_now)
        if tup.stream_id in sources:
            result_created.append(tup.created_at)
            result_wall.append(clock())

    metrics.record_ingest, metrics.record_result = ingest, result
    return stamps


def paced_live_run(make_runtime) -> tuple[Sample, LatencyStamps]:
    """A timed run with latency stamps (for ``time_scale > 0`` legs)."""
    stamps: list[LatencyStamps] = []

    def build():
        runtime = make_runtime()
        stamps.append(stamp_latency(runtime))
        return runtime

    sample = timed_live_run(build)
    stamps[0].wall_started = sample.handle.metrics.wall_started
    return sample, stamps[0]
