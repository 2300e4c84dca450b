"""The five benchmark workloads and how each one is run and checked.

Every workload is a federation (entities x processors, a query mix)
over ``stock_catalog(exchanges=2)`` plus execution settings.  The
federation is planned under the fixed ``STRUCTURE_SEED`` so its shape
is part of the workload's definition; ``--seed`` chooses the source
data replayed through it (see ``measure.reseed_sources``).

A run of a workload has up to three legs, all in one process:

1. a *reference* run whose results the other legs must reproduce (it
   doubles as the discarded warm-up);
2. the *main* leg — repeated as-fast-as-possible replays (best repeat
   reported); for ``paced`` one open-loop run, and its reference
   replayed several times for CPU per tuple;
3. a short open-loop *probe* of the same federation at 1,000 tuples/s,
   which is where wall-clock latency is defined.  ``paced`` needs none:
   its main leg is that measurement at full length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import measure
from measure import LatencyStamps, Sample, percentile, summarize

from repro.core.system import SystemConfig
from repro.distributed import DistributedCoordinator
from repro.live import LiveRuntime, LiveSettings
from repro.query.generator import WorkloadConfig, generate_workload
from repro.streams.catalog import stock_catalog

STRUCTURE_SEED = 91
PROBE_RATE = 500.0  # per stream: 1,000 tuples/s offered over two streams
LOOPBACK = {"time_scale": 1.0, "wan_latency": 0.0, "lan_latency": 0.0}


@dataclass(frozen=True)
class Workload:
    """One named set of inputs and settings."""

    name: str
    why: str
    rate: float  # tuples per virtual second, per stream (two streams)
    duration: float  # virtual seconds replayed per repeat
    entities: int
    processors: int
    queries: int
    join_fraction: float
    aggregate_fraction: float
    config: dict = field(default_factory=dict)
    settings: dict = field(default_factory=dict)
    # How the reference run differs from the main leg.
    reference_config: dict = field(default_factory=dict)
    reference_settings: dict = field(default_factory=dict)
    exact_results: bool = False  # compare whole tuples, not just keys
    workers: int = 0  # > 0: main leg runs on the distributed leg
    open_loop: bool = False  # main leg is paced, after flat-out replays
    lossy: bool = False  # overload workload: drops are expected
    repeats_per_10s: float = 1  # main-leg repeats per 10 s of --seconds


_REPLAY = dict(
    rate=2000.0,
    duration=10.0,
    entities=8,
    processors=2,
    queries=96,
    join_fraction=0.0,
    aggregate_fraction=0.0,
    settings={"batch_size": 32},
)
_STATEFUL_MIX = dict(
    entities=4,
    processors=3,
    queries=32,
    join_fraction=0.4,
    aggregate_fraction=0.4,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="replay",
            why="selection-only fan-out: tree-edge filtering, batchers, "
            "channels with working backpressure and delegate routing do "
            "the work, operators almost none; single-process baseline of "
            "dist2",
            # (a batch_size=1 reference would take 42 s for this trace)
            reference_config={"early_filtering": False},
            repeats_per_10s=4,
            **_REPLAY,
        ),
        Workload(
            name="stateful",
            why="joins and grouped aggregates, partitioned and shared: "
            "the engine does the work and dissemination little, the mirror "
            "image of replay",
            rate=1000.0,
            duration=10.0,
            config={"partition_parallelism": 2, "shared_execution": True},
            settings={"batch_size": 32, "channel_capacity": 100_000},
            reference_config={
                "partition_parallelism": 1,
                "shared_execution": False,
            },
            exact_results=True,
            repeats_per_10s=4,
            **_STATEFUL_MIX,
        ),
        Workload(
            name="paced",
            why="open loop at 1,000 tuples/s: per-tuple forward, lingering "
            "partial batches, a mostly idle loop, so throughput bought with "
            "bigger batches or lazier flushes shows up as latency",
            rate=PROBE_RATE,
            duration=0.0,
            entities=4,
            processors=3,
            queries=48,
            join_fraction=0.0,
            aggregate_fraction=0.2,
            settings=dict(LOOPBACK),
            open_loop=True,
        ),
        Workload(
            name="dist2",
            why="replay's federation, queries and settings on two worker "
            "processes: codec, sockets, credit flow and termination probing "
            "do the extra work; its ingest_tps over replay's is the x-live "
            "ratio",
            workers=2,
            repeats_per_10s=2.5,
            **_REPLAY,
        ),
        Workload(
            name="squeeze",
            why="default bounded channels past the overload cliff: cyclic "
            "processor channels fill and only send timeouts relieve them, so "
            "a flow-control fix shows here and unbounded queues cannot hide",
            rate=1000.0,
            duration=2.0,
            settings={
                "send_timeout": 0.05,
                "backoff_base": 0.001,
                "backoff_max": 0.05,
            },
            reference_settings={"channel_capacity": 100_000},
            lossy=True,
            **_STATEFUL_MIX,
        ),
    )
}


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------
def _inputs(w: Workload, *, rate: float, duration: float, config, settings):
    catalog = stock_catalog(exchanges=2, rate=rate)
    system_config = SystemConfig(
        entity_count=w.entities,
        processors_per_entity=w.processors,
        seed=STRUCTURE_SEED,
        **{**w.config, **config},
    )
    live_settings = LiveSettings(
        duration=duration, **{**w.settings, **settings}
    )
    queries = generate_workload(
        catalog,
        WorkloadConfig(
            query_count=w.queries,
            join_fraction=w.join_fraction,
            aggregate_fraction=w.aggregate_fraction,
        ),
        seed=STRUCTURE_SEED,
    ).queries
    return catalog, system_config, live_settings, queries


def live_builder(
    w: Workload,
    seed: int,
    *,
    rate: float,
    duration: float,
    config: dict | None = None,
    settings: dict | None = None,
):
    """A zero-argument factory of planned, seeded ``LiveRuntime``s."""

    def build() -> LiveRuntime:
        catalog, system_config, live_settings, queries = _inputs(
            w,
            rate=rate,
            duration=duration,
            config=config or {},
            settings=settings or {},
        )
        runtime = LiveRuntime(catalog, system_config, live_settings)
        runtime.submit(queries)
        measure.reseed_sources(runtime, seed)
        return runtime

    return build


def coordinator_builder(w: Workload, *, duration: float):
    """A zero-argument factory of ``DistributedCoordinator``s."""

    def build() -> DistributedCoordinator:
        catalog, system_config, live_settings, queries = _inputs(
            w, rate=w.rate, duration=duration, config={}, settings={}
        )
        return DistributedCoordinator(
            catalog, system_config, queries, live_settings, workers=w.workers
        )

    return build


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------
def result_keys(results: dict) -> set:
    """``{(query_id, stream_id, seq)}`` — the repo's parity key."""
    return {
        (query_id, tup.stream_id, tup.seq)
        for query_id, tups in results.items()
        for tup in tups
    }


def result_digests(results: dict) -> dict:
    """An order-free digest of every whole result tuple, per query:
    the row count and the sum of the rows' hashes.  Nothing is sorted
    or kept, so the check costs little time and next to no memory."""
    digests = {}
    for query_id, tups in results.items():
        total = 0
        for tup in tups:
            total += hash(
                (
                    tup.stream_id,
                    tup.seq,
                    tup.created_at,
                    *sorted(tup.values.items()),
                )
            )
        if tups:
            digests[query_id] = (len(tups), total & 0xFFFFFFFFFFFFFFFF)
    return digests


class Checker:
    """Compares each leg's results with a reference run's.

    ``attempted`` counts the results the reference says are due,
    ``failed`` the ones a leg got wrong: missing, unexpected, duplicated
    or (``exact``) different in any field.  Any failure is an error,
    except on a ``lossy`` workload, where shed results are the subject
    of the measurement: there the run is wrong only when a result
    differs or more than a tenth of them is gone.

    ``volatile`` names the queries whose output no other plan can
    reproduce (window joins on the live leg, README "known defects" 3).
    They are left out of the comparison with the reference; instead
    every repeat must reproduce the first repeat's output exactly.
    """

    def __init__(
        self,
        reference: dict,
        *,
        exact: bool,
        lossy: bool,
        corrupt: bool,
        volatile: frozenset = frozenset(),
    ) -> None:
        self.lossy = lossy
        self.volatile = volatile
        stable, __ = self._split(reference)
        self.keys = result_keys(stable)
        self.digests = result_digests(stable) if exact else None
        self.first_volatile: dict | None = None
        if corrupt:
            # Test hook: a deliberately wrong reference must fail the run.
            self.keys.pop()
            if self.digests is not None:
                self.digests.pop(next(iter(self.digests)))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _split(self, results: dict) -> tuple[dict, dict]:
        stable = {q: t for q, t in results.items() if q not in self.volatile}
        volatile = {q: t for q, t in results.items() if q in self.volatile}
        return stable, volatile

    def check(self, leg: str, sample: Sample) -> float:
        """Account one leg; returns its ``complete_pct``."""
        stable, volatile = self._split(sample.results)
        keys = result_keys(stable)
        expected = len(self.keys)
        missing = len(self.keys - keys)
        duplicated = sum(len(tups) for tups in stable.values()) - len(keys)
        wrong = len(keys - self.keys) + duplicated
        if self.digests is not None and not missing and not wrong:
            digests = result_digests(stable)
            wrong = sum(digests.get(q) != d for q, d in self.digests.items())
        if self.volatile:
            digests = result_digests(volatile)
            if self.first_volatile is None:
                self.first_volatile = digests
            wrong += sum(
                digests.get(q) != self.first_volatile.get(q)
                for q in digests.keys() | self.first_volatile.keys()
            )
        self.attempted += expected
        self.failed += wrong + missing
        if wrong:
            self.errors.append(
                f"{leg}: {wrong} results differ from the reference"
            )
        dropped = sample.report.dropped_tuples
        tolerated = 0.10 * expected if self.lossy else 0
        if missing > tolerated or (dropped and not self.lossy):
            self.errors.append(
                f"{leg}: {missing} of {expected} results missing, "
                f"{dropped} tuples dropped"
            )
        return 100.0 * (expected - missing) / expected

    def fail(self, message: str) -> None:
        """Record a failed check that is not about one result."""
        self.errors.append(message)
        self.failed += 1

    def absorb(self, other: "Checker", prefix: str) -> None:
        """Fold another leg's checker into this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += [f"{prefix} {error}" for error in other.errors]


# ----------------------------------------------------------------------
# Legs
# ----------------------------------------------------------------------
@dataclass
class OpenLoopLeg:
    """A paced run, its latency stamps and its reference check."""

    sample: Sample
    stamps: LatencyStamps
    complete_pct: float
    checker: Checker
    references: list[Sample]  # the as-fast-as-possible replays


def open_loop_leg(
    w: Workload,
    seed: int,
    duration: float,
    *,
    corrupt: bool,
    tracer,
    leg: str,
    references: int = 1,
) -> OpenLoopLeg:
    """Replay ``duration`` virtual seconds at 1,000 tuples/s in real
    time over loopback channels, after an as-fast-as-possible run of
    the same trace that provides the reference results.  Further
    ``references`` repeat that replay (same plan, same trace) for more
    samples of set-up and of flat-out CPU per tuple."""
    build_reference = live_builder(
        w,
        seed,
        rate=PROBE_RATE,
        duration=duration,
        settings={
            **LOOPBACK,
            "time_scale": 0.0,
            # as fast as possible the default bound deadlocks (squeeze)
            "channel_capacity": 100_000,
        },
    )
    reference = measure.timed_live_run(build_reference)
    checker = Checker(
        reference.results, exact=False, lossy=False, corrupt=corrupt
    )
    if reference.report.dropped_tuples:
        checker.fail(f"the {leg} reference run dropped tuples")
    reference.release()
    replays = [reference]
    for __ in range(references - 1):
        again = measure.timed_live_run(build_reference)
        if again.counts != reference.counts:
            checker.fail(
                f"counts differ between {leg} reference replays: "
                f"{reference.counts} vs {again.counts}"
            )
        again.release()
        replays.append(again)
    if tracer is not None:
        tracer.start(leg)
    sample, stamps = measure.paced_live_run(
        live_builder(
            w, seed, rate=PROBE_RATE, duration=duration, settings=LOOPBACK
        )
    )
    if tracer is not None:
        tracer.stop(sample)
    complete = checker.check(leg, sample)
    sample.release()
    return OpenLoopLeg(sample, stamps, complete, checker, replays)


@dataclass
class MainLeg:
    """The main leg's untraced runs and what checking them found."""

    samples: list[Sample]
    setups: list[float]
    complete_pct: float
    checker: Checker
    stamps: LatencyStamps | None = None  # open loop: its own latency
    # open loop: the flat-out replays CPU per tuple is taken from
    cpu_samples: list[Sample] | None = None
    coordinator: dict | None = None  # public coordinator facts (dist leg)
    worker_cpu_s: float = 0.0  # CPU of the traced run's workers


def open_loop_main(w, seed, duration, replays, *, corrupt, tracer) -> MainLeg:
    """``paced``: one open-loop run gives achieved rate and latency.

    CPU per tuple does not come from it.  A loop that sleeps between
    tuples pays for every wake-up with cold caches, and how cold depends
    on what the host's other guests do: the same run costs 160-260 us
    per tuple from one minute to the next (README, "Noise").  So the
    reference replay of the same trace is repeated, flat out, and CPU
    per tuple and set-up are the best of those; the open-loop figure is
    the per-layer ``live.open_loop_cpu_us_per_tuple``.

    The traced pass repeats the paced run with the recorders on; the
    untraced run stays the base the tracing overhead is measured against.
    """
    leg = open_loop_leg(
        w,
        seed,
        duration,
        corrupt=corrupt,
        tracer=None,
        leg="main",
        references=replays,
    )
    main = MainLeg(
        [leg.sample],
        [s.setup_s for s in [*leg.references, leg.sample]],
        leg.complete_pct,
        leg.checker,
        leg.stamps,
        cpu_samples=leg.references,
    )
    if tracer is not None:
        traced = open_loop_leg(
            w, seed, duration, corrupt=False, tracer=tracer, leg="main"
        )
        main.checker.absorb(traced.checker, "traced")
        main.stamps = traced.stamps
    return main


def replay_main(w, seed, duration, repeats, *, corrupt, tracer) -> MainLeg:
    """Reference run, then ``repeats`` as-fast-as-possible replays (and
    one more with the recorders on in the traced pass), each checked
    against the reference and against the first repeat's counts."""
    reference = measure.timed_live_run(
        live_builder(
            w,
            seed,
            rate=w.rate,
            duration=duration,
            config=w.reference_config,
            settings=w.reference_settings,
        )
    )
    # Where the reference is another plan (``exact_results``), the join
    # queries cannot be held to it: a live window join expires by the
    # processing clock, so its output follows the plan's interleaving.
    joins = frozenset(
        query.query_id
        for query in reference.handle.planner.queries
        if w.exact_results and query.join is not None
    )
    checker = Checker(
        reference.results,
        exact=w.exact_results,
        lossy=w.lossy,
        corrupt=corrupt,
        volatile=joins,
    )
    if reference.report.dropped_tuples:
        checker.fail("the reference run dropped tuples")
    # A same-leg reference plans and records the very same trace, so its
    # set-up is one more set-up sample.
    main = MainLeg([], [] if w.workers else [reference.setup_s], 100.0, checker)
    reference.release()

    if w.workers:
        build = coordinator_builder(w, duration=duration)
    else:
        build = live_builder(w, seed, rate=w.rate, duration=duration)
    for index in range(repeats + (tracer is not None)):
        traced = index == repeats
        if traced:
            tracer.start("main")
        workers_before = measure.children_cpu()
        if w.workers:
            sample = measure.timed_distributed_run(build, seed)
        else:
            sample = measure.timed_live_run(build)
        if traced:
            tracer.stop(sample)
            main.worker_cpu_s = measure.children_cpu() - workers_before
        complete = checker.check(f"repeat {index}", sample)
        main.complete_pct = min(main.complete_pct, complete)
        if w.workers:
            coordinator = sample.handle
            if coordinator.violations:
                checker.fail(f"distributed audit: {coordinator.violations}")
            main.coordinator = {
                "probe_rounds": coordinator.probe_rounds,
                "worker_metrics": coordinator.worker_metrics,
                "entered": sample.entered,
                "left": sample.left,
            }
        sample.release()
        if not traced:
            main.samples.append(sample)
            main.setups.append(sample.setup_s)
        first = main.samples[0].counts
        if not w.lossy and sample.counts != first:
            checker.fail(
                f"counts differ between repeat 0 and {index}: "
                f"{first} vs {sample.counts}"
            )
    return main


@dataclass
class Outcome:
    """Everything one run of one workload measured."""

    workload: str
    seed: int
    metrics: dict  # name -> {"value", "unit", repeat statistics...}
    counts: dict
    attempted: int
    failed: int
    errors: list[str]
    main: MainLeg
    stamps: LatencyStamps  # of the paced leg the latencies come from

    @property
    def correct(self) -> bool:
        return not self.errors


def run_workload(
    w: Workload,
    *,
    seed: int,
    seconds: float,
    smoke: bool = False,
    corrupt: bool = False,
    tracer=None,
) -> Outcome:
    """Run every leg of one workload and assemble its metrics.

    ``seconds`` sizes the measurement: the main leg makes
    ``repeats_per_10s`` repeats per 10 s of it (at least two where
    counts must repeat), the probe replays 0.15 x ``seconds`` of virtual
    time, and ``paced`` replays 0.75 x ``seconds`` of it in its one run
    (about ``seconds`` of wall time) after 0.375 x ``seconds`` flat-out
    replays of the same trace.  With
    a ``tracer`` (the traced pass) one untraced run of the main leg
    gives the base for the tracing overhead, then one traced run of it
    and a traced probe give the layer numbers.  ``smoke`` shrinks every
    trace to a tenth and runs each leg once.
    """
    if w.open_loop:
        main = open_loop_main(
            w,
            seed,
            2.0 if smoke else 0.75 * seconds,
            1 if smoke or tracer is not None else max(2, round(0.375 * seconds)),
            corrupt=corrupt,
            tracer=tracer,
        )
        stamps = main.stamps
    else:
        if smoke or tracer is not None:
            repeats = 1
        else:
            repeats = max(
                1 if w.lossy else 2, round(w.repeats_per_10s * seconds / 10)
            )
        main = replay_main(
            w,
            seed,
            w.duration * (0.1 if smoke else 1.0),
            repeats,
            corrupt=corrupt,
            tracer=tracer,
        )
        probe = open_loop_leg(
            w,
            seed,
            1.0 if smoke else max(1.0, 0.15 * seconds),
            corrupt=False,
            tracer=tracer,
            leg="probe",
        )
        main.checker.absorb(probe.checker, "probe")
        stamps = probe.stamps

    checker = main.checker
    latencies = stamps.latencies_ms()
    if not latencies:
        checker.fail("the paced leg delivered no results")
    tps = [s.ingest_tps for s in main.samples]
    cpu = [s.cpu_us_per_tuple for s in main.cpu_samples or main.samples]
    metrics = {
        "ingest_tps": {"unit": "1/s", **summarize(tps, better="higher")},
        "cpu_us_per_tuple": {"unit": "us", **summarize(cpu, better="lower")},
        "latency_p50_ms": {
            "unit": "ms",
            "value": percentile(latencies, 0.50),
            "n": len(latencies),
        },
        "latency_p95_ms": {
            "unit": "ms",
            "value": percentile(latencies, 0.95),
            "n": len(latencies),
        },
        "complete_pct": {"unit": "%", "value": main.complete_pct},
        "peak_rss_mb": {"unit": "MB", "value": measure.peak_rss_mb()},
        "setup_s": {"unit": "s", **summarize(main.setups, better="lower")},
    }
    return Outcome(
        workload=w.name,
        seed=seed,
        metrics=metrics,
        counts=main.samples[0].counts,
        attempted=checker.attempted,
        failed=checker.failed,
        errors=checker.errors,
        main=main,
        stamps=stamps,
    )
