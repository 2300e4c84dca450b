"""``python -m repro race`` — seeded interleaving exploration.

Each run drives a real scenario (migration, partition rebalance,
admission churn, credit links) on a :class:`ScheduledLoop` whose ready
queue is permuted by a seeded strategy, with the happens-before monitor
installed over the shared runtime state.  After the run the explorer
validates four properties:

* the structural federation audit passes (``audit_federation``);
* the happens-before monitor found no unsuppressed ``DRD0xx`` race;
* latency aggregates are sane (no negative samples leaked in);
* for scenarios whose semantics promise it, the canonical result set
  is bit-identical to the scenario's reference schedule (migration and
  rebalance are exactly-once by construction; admission is excluded —
  registration *time* legitimately decides which tuples a new query
  sees, so its result set is schedule-dependent by design).

Any failure writes a replayable trace file; ``--replay`` re-runs it
bit-identically (same scenario, strategy, seed) and cross-checks the
schedule fingerprint so code drift is reported rather than silently
changing the schedule under the trace.
"""

from __future__ import annotations

import asyncio
import hashlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis.concurrency.hb import HBMonitor
from repro.analysis.concurrency.instrument import (
    Instrumentation,
    wrap_credit_gate,
)
from repro.analysis.concurrency.schedule import (
    PreemptionBounded,
    RandomWalk,
    ScheduleController,
    ScheduleStrategy,
    ScheduleTrace,
    format_trace,
)
from repro.analysis.invariants import audit_federation

__all__ = [
    "RaceExplorer",
    "RaceFailure",
    "RaceRunResult",
    "RaceSweep",
    "SCENARIOS",
    "result_fingerprint",
]


def result_fingerprint(results: dict[str, list[Any]]) -> str:
    """Canonical digest of a run's result sets.

    Sorted per query by (stream, seq, timestamp) so only the delivered
    *set* matters, never arrival order; duplicates and losses both
    change the digest.
    """
    lines: list[str] = []
    for query_id in sorted(results):
        tuples = sorted(
            results[query_id], key=lambda t: (t.stream_id, t.seq, t.created_at)
        )
        for tup in tuples:
            values = ",".join(f"{k}={tup.values[k]!r}" for k in sorted(tup.values))
            lines.append(
                f"{query_id}|{tup.stream_id}|{tup.seq}|{tup.created_at!r}|{values}"
            )
    digest = hashlib.sha256("\n".join(lines).encode("utf-8"))
    return digest.hexdigest()


@dataclass
class RaceFailure:
    """Why one scheduled run failed validation."""

    kind: str  # audit | race | parity | sanity | scenario | crash
    details: list[str]

    def render(self) -> str:
        """Format the failure as ``[kind] detail`` lines."""
        head = f"[{self.kind}]"
        return "\n".join(f"{head} {line}" for line in self.details)


@dataclass
class RaceRunResult:
    """Outcome of one explored interleaving."""

    scenario: str
    strategy: str
    seed: int
    decisions: int
    checksum: str
    result_hash: str | None = None
    failure: RaceFailure | None = None
    trace_path: Path | None = None
    exercised: int = 0

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class RaceSweep:
    """Aggregate outcome of a full exploration sweep."""

    runs: list[RaceRunResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def failures(self) -> list[RaceRunResult]:
        return [run for run in self.runs if not run.ok]

    @property
    def explored(self) -> int:
        return len(self.runs)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


class Scenario:
    """One concurrency-critical workload recipe.

    ``parity`` marks scenarios whose result set is schedule-invariant;
    ``exercised`` reports the count of interesting control actions
    (migrations, rebalances, admissions, duplicate credits) so the
    sweep can prove it actually stressed the machinery it claims to.
    """

    name = "scenario"
    parity = True

    def run(self, controller: ScheduleController, monitor: HBMonitor) -> RaceRunResult:
        """Execute one schedule of this scenario and validate it."""
        raise NotImplementedError

    def _finish(
        self,
        controller: ScheduleController,
        monitor: HBMonitor,
        problems: dict[str, list[str]],
        result_hash: str | None,
        exercised: int,
        strategy: ScheduleStrategy,
    ) -> RaceRunResult:
        for finding in monitor.findings(root=Path.cwd()):
            problems.setdefault("race", []).append(finding.render())
        failure: RaceFailure | None = None
        for kind in ("crash", "audit", "race", "sanity", "parity", "scenario"):
            if problems.get(kind):
                failure = RaceFailure(kind=kind, details=problems[kind])
                break
        return RaceRunResult(
            scenario=self.name,
            strategy=strategy.name,
            seed=strategy.seed,
            decisions=controller.decisions,
            checksum=controller.fingerprint(),
            result_hash=result_hash,
            failure=failure,
            exercised=exercised,
        )


class _RuntimeScenario(Scenario):
    """Shared driver for scenarios built on a live runtime."""

    span = 1.0

    def __init__(self) -> None:
        self._traces: dict[str, list[Any]] | None = None

    # -- per-scenario hooks --------------------------------------------

    def build(self, instrumentation: Instrumentation) -> Any:
        """Return a fresh, submitted runtime for one run, with
        ``instrumentation`` as the last of its services."""
        raise NotImplementedError

    def validate(self, runtime: Any, report: Any) -> list[str]:
        """Scenario-specific post-run checks (returns problem strings)."""
        return []

    def exercised(self, runtime: Any, report: Any) -> int:
        """How many control actions this schedule actually provoked."""
        return 0

    # -- driver ---------------------------------------------------------

    def run(self, controller: ScheduleController, monitor: HBMonitor) -> RaceRunResult:
        """Drive the live runtime under the permuted schedule and validate."""
        problems: dict[str, list[str]] = {}
        result_hash: str | None = None
        exercised = 0
        runtime = self.build(Instrumentation(monitor))

        def loop_factory() -> asyncio.AbstractEventLoop:
            # every task of the run, the services' included, is created
            # under the monitor's factory
            loop = controller.loop_factory()
            loop.set_task_factory(monitor.task_factory)
            return loop

        try:
            # The seeded source trace is a pure function of catalog,
            # config, and drift — the first runtime records it and every
            # later schedule of this scenario replays the same one
            # (feeds read it read-only).
            flow = runtime.prepare(self.span, traces=self._traces)
            if self._traces is None:
                self._traces = {feed.stream_id: feed.trace for feed in flow.feeds}
            with asyncio.Runner(loop_factory=loop_factory) as runner:
                report = runner.run(runtime.execute())
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            problems["crash"] = [f"{type(exc).__name__}: {exc}"]
            return self._finish(
                controller, monitor, problems, None, 0, controller.strategy
            )
        for violation in audit_federation(runtime.planner, dataflow=runtime.dataflow):
            problems.setdefault("audit", []).append(violation.render())
        metrics = runtime.metrics
        if any(sample < 0 for sample in metrics.result_latencies):
            problems.setdefault("sanity", []).append(
                "negative result-latency sample leaked into the aggregates"
            )
        if any(total < -1e-9 for total in metrics.entity_latency_sum.values()):
            problems.setdefault("sanity", []).append(
                "negative entity latency aggregate"
            )
        for check in self.validate(runtime, report):
            problems.setdefault("scenario", []).append(check)
        result_hash = result_fingerprint(runtime.results)
        exercised = self.exercised(runtime, report)
        return self._finish(
            controller, monitor, problems, result_hash, exercised, controller.strategy
        )


class MigrationScenario(_RuntimeScenario):
    """Drifting-rate selections under the adaptive migration loop.

    Stateless selections (the cross-runtime parity workload) keep the
    result set a pure function of the source trace, so every schedule
    must deliver the identical set — migration is exactly-once by
    construction.
    """

    name = "migration"
    parity = True
    span = 0.9

    def build(self, instrumentation: Instrumentation) -> Any:
        from repro.live import Adaptation, AdaptationSettings, LiveRuntime, LiveSettings
        from repro.workloads import apply_rate_drift, crossfade_rates, parity_workload

        catalog, config, queries = parity_workload(11, rate=80.0)
        adaptation = AdaptationSettings(
            period=0.2, imbalance_threshold=1.02, max_imbalance=1.01
        )
        runtime = LiveRuntime(
            catalog,
            config,
            LiveSettings(
                duration=self.span, batch_size=4, send_timeout=2.0, max_retries=6
            ),
            services=[Adaptation(adaptation), instrumentation],
        )
        runtime.submit(queries)
        hot = {s for s in catalog.stream_ids() if s.startswith("exchange-0")}
        apply_rate_drift(
            runtime.planner.sources,
            crossfade_rates(
                catalog, hot, factor_up=6.0, factor_down=0.25, duration=self.span
            ),
        )
        return runtime

    def exercised(self, runtime: Any, report: Any) -> int:
        """Count completed query migrations."""
        return int(report.adaptation.queries_migrated)


class RebalanceScenario(_RuntimeScenario):
    """Zipf-skewed partitioned aggregates under skew rebalancing.

    The partitioned equivalence proofs promise results identical to the
    serial execution, so the result set is schedule-invariant here too.
    """

    name = "rebalance"
    parity = True
    span = 1.0

    def build(self, instrumentation: Instrumentation) -> Any:
        from repro.live import Adaptation, AdaptationSettings, LiveRuntime, LiveSettings
        from repro.workloads import partition_workload

        catalog, config, queries = partition_workload(3)
        adaptation = AdaptationSettings(period=0.4, partition_skew_threshold=1.2)
        runtime = LiveRuntime(
            catalog,
            config,
            LiveSettings(duration=self.span, batch_size=4),
            services=[Adaptation(adaptation), instrumentation],
        )
        runtime.submit(queries)
        return runtime

    def exercised(self, runtime: Any, report: Any) -> int:
        """Count completed partition rebalances."""
        return int(report.adaptation.partition_rebalances)


class AdmissionScenario(_RuntimeScenario):
    """Query churn through the control plane's admission window.

    Not parity-checked: a registration's quiesce window lands at a
    schedule-dependent virtual time, and which tuples a new query sees
    legitimately depends on when its chain was installed.  The audit,
    the race monitor, and the control plane's accounting equation hold
    under every schedule instead.
    """

    name = "admission"
    parity = False
    span = 1.5

    def build(self, instrumentation: Instrumentation) -> Any:
        from repro.control import Control
        from repro.live import Adaptation, LiveRuntime, LiveSettings
        from repro.workloads import churn_workload

        catalog, config, queries, events = churn_workload(
            seed=7,
            duration=self.span,
            churn_per_minute=240.0,
            quota_rate=200.0,
        )
        runtime = LiveRuntime(
            catalog,
            config,
            LiveSettings(duration=self.span),
            services=[Adaptation(), Control(events=events), instrumentation],
        )
        runtime.submit(queries)
        return runtime

    def validate(self, runtime: Any, report: Any) -> list[str]:
        control = report.control
        problems: list[str] = []
        settled = control.registered + control.rejected + control.stranded_in_queue
        if settled != control.arrivals:
            problems.append(
                f"unsettled arrivals: {control.arrivals} seen, "
                f"{control.registered} registered + {control.rejected} rejected "
                f"+ {control.stranded_in_queue} queued"
            )
        return problems

    def exercised(self, runtime: Any, report: Any) -> int:
        """Count settled lifecycle events (registrations + teardowns)."""
        control = report.control
        return int(control.registered + control.torn_down)


class CreditScenario(Scenario):
    """An in-process credit-gated link with stray duplicate CREDITs.

    The clean gate must swallow the duplicates (counting them) without
    ever widening the window past the initial grant (DRD004) and the
    receiver must see every batch exactly once, in order, regardless of
    how sender/receiver/rogue wake-ups interleave.
    """

    name = "credit"
    parity = True
    span = 0.0
    BATCHES = 32
    WINDOW = 4

    def run(self, controller: ScheduleController, monitor: HBMonitor) -> RaceRunResult:
        """Drive an in-process credit gate exchange with rogue duplicates."""
        from repro.distributed.links import CreditGate

        problems: dict[str, list[str]] = {}
        received: list[int] = []
        gate = CreditGate(self.WINDOW)
        wrap_credit_gate(gate, monitor, "race-link")

        async def main() -> None:
            asyncio.get_running_loop().set_task_factory(monitor.task_factory)
            queue: asyncio.Queue[int | None] = asyncio.Queue()

            async def sender() -> None:
                for index in range(self.BATCHES):
                    await gate.acquire()
                    await queue.put(index)
                await queue.put(None)

            async def receiver() -> None:
                while True:
                    item = await queue.get()
                    if item is None:
                        return
                    received.append(item)
                    await gate.release()

            async def rogue() -> None:
                # Stray duplicate CREDIT frames: returned credits the
                # receiver never granted.  The window must not widen.
                for _ in range(6):
                    await asyncio.sleep(0)
                    await gate.release()

            tasks = [
                asyncio.create_task(sender(), name="race:sender"),
                asyncio.create_task(receiver(), name="race:receiver"),
                asyncio.create_task(rogue(), name="race:rogue"),
            ]
            await asyncio.gather(*tasks)

        try:
            with asyncio.Runner(loop_factory=controller.loop_factory) as runner:
                runner.run(main())
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            problems["crash"] = [f"{type(exc).__name__}: {exc}"]
            return self._finish(
                controller, monitor, problems, None, 0, controller.strategy
            )
        if received != list(range(self.BATCHES)):
            problems.setdefault("scenario", []).append(
                f"receiver saw {len(received)} batches, expected "
                f"{self.BATCHES} in order"
            )
        if gate.available > gate.initial:
            problems.setdefault("scenario", []).append(
                f"credit window widened to {gate.available} > {gate.initial}"
            )
        digest = hashlib.sha256(
            ",".join(str(item) for item in received).encode()
        ).hexdigest()
        return self._finish(
            controller,
            monitor,
            problems,
            digest,
            gate.excess_credit_returns,
            controller.strategy,
        )


SCENARIOS: dict[str, Callable[[], Scenario]] = {
    "migration": MigrationScenario,
    "rebalance": RebalanceScenario,
    "admission": AdmissionScenario,
    "credit": CreditScenario,
}

#: Share of the schedule budget each scenario receives in a full sweep.
SCENARIO_WEIGHTS: dict[str, float] = {
    "migration": 0.35,
    "rebalance": 0.30,
    "admission": 0.30,
    "credit": 0.05,
}


# ----------------------------------------------------------------------
# Explorer
# ----------------------------------------------------------------------


class RaceExplorer:
    """Runs the sweep, tracks parity references, writes failure traces."""

    def __init__(
        self,
        *,
        scenarios: Iterable[str] | None = None,
        schedules: int = 560,
        seed: int = 0,
        trace_dir: Path | str = "race-traces",
        progress: Callable[[str], None] | None = None,
    ) -> None:
        names = list(scenarios) if scenarios is not None else list(SCENARIOS)
        unknown = [name for name in names if name not in SCENARIOS]
        if unknown:
            known = ", ".join(sorted(SCENARIOS))
            raise ValueError(f"unknown scenario(s) {unknown} (known: {known})")
        self.names = names
        self.schedules = schedules
        self.seed = seed
        self.trace_dir = Path(trace_dir)
        self.progress = progress or (lambda message: None)
        self.references: dict[str, str] = {}

    # ------------------------------------------------------------------
    def _budget(self) -> dict[str, int]:
        weights = {name: SCENARIO_WEIGHTS.get(name, 0.1) for name in self.names}
        total_weight = sum(weights.values())
        budget = {
            name: max(1, round(self.schedules * weight / total_weight))
            for name, weight in weights.items()
        }
        # Round-off drift: trim/pad the largest bucket so the sweep
        # explores exactly the requested number of schedules.
        drift = sum(budget.values()) - self.schedules
        if drift:
            largest = max(budget, key=lambda name: budget[name])
            budget[largest] = max(1, budget[largest] - drift)
        return budget

    @staticmethod
    def _strategy_for(index: int, seed: int) -> ScheduleStrategy:
        if index % 2 == 0:
            return PreemptionBounded(seed)
        return RandomWalk(seed)

    # ------------------------------------------------------------------
    def run_one(
        self, scenario: Scenario, strategy: ScheduleStrategy
    ) -> RaceRunResult:
        """Run a single schedule; write a trace file on failure."""
        controller = ScheduleController(strategy)
        monitor = HBMonitor()
        result = scenario.run(controller, monitor)
        if scenario.parity and result.ok and result.result_hash is not None:
            reference = self.references.get(scenario.name)
            if reference is None:
                self.references[scenario.name] = result.result_hash
            elif reference != result.result_hash:
                result.failure = RaceFailure(
                    kind="parity",
                    details=[
                        f"result set {result.result_hash[:16]} diverged from "
                        f"the reference schedule's {reference[:16]}"
                    ],
                )
        if result.failure is not None:
            result.trace_path = self._write_trace(result)
        return result

    def _write_trace(self, result: RaceRunResult) -> Path:
        trace = ScheduleTrace(
            scenario=result.scenario,
            strategy=result.strategy,
            seed=result.seed,
            decisions=result.decisions,
            checksum=result.checksum,
            params=dict(self._params_of(result)),
            failure=result.failure.render() if result.failure else None,
            result_hash=result.result_hash,
            reference_hash=self.references.get(result.scenario),
        )
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"race-{result.scenario}-{result.seed}.trace"
        path.write_text(format_trace(trace), encoding="utf-8")
        return path

    @staticmethod
    def _params_of(result: RaceRunResult) -> dict[str, str]:
        strategy = RaceExplorer._strategy_rebuild(result.strategy, result.seed)
        return strategy.params()

    @staticmethod
    def _strategy_rebuild(name: str, seed: int) -> ScheduleStrategy:
        from repro.analysis.concurrency.schedule import make_strategy

        return make_strategy(name, seed)

    # ------------------------------------------------------------------
    def run(self) -> RaceSweep:
        """Explore the full schedule budget across all scenarios."""
        sweep = RaceSweep()
        budget = self._budget()
        for name in self.names:
            scenario = SCENARIOS[name]()
            count = budget[name]
            self.progress(f"{name}: exploring {count} schedules")
            exercised_total = 0
            for index in range(count):
                strategy = self._strategy_for(index, self.seed + index)
                result = self.run_one(scenario, strategy)
                sweep.runs.append(result)
                exercised_total += result.exercised
                if result.failure is not None:
                    self.progress(
                        f"{name}: schedule seed={result.seed} FAILED "
                        f"({result.failure.kind}) -> {result.trace_path}"
                    )
            if exercised_total == 0:
                sweep.notes.append(
                    f"scenario {name} never exercised its control machinery "
                    f"({count} schedules ran but no adaptation action fired)"
                )
            else:
                self.progress(
                    f"{name}: {count} schedules, {exercised_total} control "
                    "actions exercised"
                )
        return sweep

    # ------------------------------------------------------------------
    def replay(self, trace: ScheduleTrace) -> RaceRunResult:
        """Re-run one recorded schedule and cross-check its fingerprint."""
        if trace.scenario not in SCENARIOS:
            known = ", ".join(sorted(SCENARIOS))
            raise ValueError(
                f"trace names unknown scenario {trace.scenario!r} (known: {known})"
            )
        scenario = SCENARIOS[trace.scenario]()
        if trace.reference_hash is not None:
            self.references[trace.scenario] = trace.reference_hash
        controller = trace.make_controller()
        monitor = HBMonitor()
        result = scenario.run(controller, monitor)
        if (
            scenario.parity
            and result.ok
            and result.result_hash is not None
            and trace.reference_hash is not None
            and result.result_hash != trace.reference_hash
        ):
            result.failure = RaceFailure(
                kind="parity",
                details=[
                    f"result set {result.result_hash[:16]} diverged from the "
                    f"recorded reference {trace.reference_hash[:16]}"
                ],
            )
        return result
