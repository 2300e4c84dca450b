"""Deterministic chaos harness for the live federation runtime.

Fault injection is only useful for a reproduction if a failure run can
be *replayed*: the same seed and the same event script must produce the
same detections, failovers, and recovery metrics every time.  Two
mechanisms make that hold:

* :class:`VirtualClockLoop` — an asyncio event loop whose clock is
  virtual.  Whenever no callback is ready, the loop jumps its clock
  straight to the next scheduled timer instead of sleeping, so source
  pacing, heartbeats, retry backoffs, latency spikes, and the chaos
  script itself all interleave in a fixed virtual order and the whole
  run finishes in milliseconds of wall time.  The clock starts at 0, so
  recorded fault/detection/recovery timestamps are run-relative and
  comparable across runs.
* a *scripted* fault schedule — faults are :class:`ChaosEvent` records
  executed at fixed virtual times by the :class:`ChaosController`; the
  only randomness allowed is the seeded generator inside
  :func:`random_script`.

:class:`Chaos` glues it together as a service of a
:class:`~repro.live.runtime.LiveRuntime`: it puts the run on the virtual
loop, with the controller injecting faults, a
:class:`~repro.live.recovery.HeartbeatMonitor` detecting them, and a
:class:`~repro.live.recovery.RecoveryManager` repairing them; the run
report carries a :class:`~repro.monitoring.recovery.RecoveryReport`.

Fault kinds (``ChaosEvent.kind``):

``entity_crash``
    Kill an entity's gateway and destroy its queued inbox batches.
``proc_crash``
    Kill one LAN processor and destroy its queued batches; recovery
    re-delegates its streams (§4) and moves its fragments to a survivor.
``partition``
    All sends into the target's channel fail for ``duration`` seconds.
``latency``
    Sends into the target's channel pay ``amount`` extra seconds of
    wire latency for ``duration`` seconds.
``stall``
    The target task stops draining its inbox for ``duration`` seconds
    (a slow consumer — backpressure propagates upstream).
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
from dataclasses import dataclass

from repro.analysis.invariants import audit_federation
from repro.live.entity_task import TaskControl
from repro.live.metrics import LiveReport
from repro.live.recovery import HeartbeatMonitor, RecoveryManager
from repro.live.runtime import LiveDataflow, LiveRuntime, RuntimeService
from repro.live.transport import TransportChaos
from repro.monitoring.recovery import RecoveryReport

KINDS = ("entity_crash", "proc_crash", "partition", "latency", "stall")


class VirtualClockLoop(asyncio.SelectorEventLoop):
    """An event loop on virtual time: idle waits become clock jumps.

    ``time()`` returns a virtual clock starting at 0.  When a pass of
    the loop finds no ready callbacks but does have scheduled timers,
    the clock jumps to the earliest timer deadline before the normal
    machinery runs — the select() then polls with timeout 0 and the
    timer fires immediately.  All relative ordering between timers is
    preserved exactly; only the idle wall-clock waiting is elided.
    """

    def __init__(self, selector=None) -> None:
        super().__init__(selector)
        self._virtual_now = 0.0

    def time(self) -> float:
        return self._virtual_now

    def advance(self, seconds: float) -> None:
        """Manually push the clock forward (rarely needed; timers jump
        the clock on their own)."""
        if seconds < 0:
            raise ValueError("cannot rewind the virtual clock")
        self._virtual_now += seconds

    def _run_once(self) -> None:
        if not self._ready and self._scheduled:
            # repro: allow[INV001] asyncio.TimerHandle deadline has no public accessor
            when = self._scheduled[0]._when
            if when > self._virtual_now:
                self._virtual_now = when
        self._reorder_ready()
        super()._run_once()

    def _reorder_ready(self) -> None:
        """Hook before each pass runs the ready callbacks.

        The base loop keeps FIFO order.  The concurrency sanitizer's
        :class:`~repro.analysis.concurrency.schedule.ScheduledLoop`
        overrides this to permute the ready queue from a seeded
        schedule, turning task interleaving into a searchable input.
        """


# ----------------------------------------------------------------------
# The fault script
# ----------------------------------------------------------------------
@dataclass(frozen=True, order=True)
class ChaosEvent:
    """One scheduled fault.

    Attributes:
        at: Virtual seconds after run start to apply the fault.
        kind: One of :data:`KINDS`.
        target: Entity id (``entity_crash``) or processor id
            (``proc_crash``); either for ``partition``/``latency``/
            ``stall``.
        duration: Seconds the fault persists (transient kinds only).
        amount: Extra per-send latency in seconds (``latency`` only).
    """

    at: float
    kind: str
    target: str
    duration: float = 0.0
    amount: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 0 or self.duration < 0 or self.amount < 0:
            raise ValueError("at/duration/amount must be >= 0")


def format_script(events: list[ChaosEvent]) -> str:
    """Serialise a script to its text form (inverse of
    :func:`parse_script`)."""
    lines = []
    for event in sorted(events):
        line = f"at={event.at:g} kind={event.kind} target={event.target}"
        if event.duration:
            line += f" duration={event.duration:g}"
        if event.amount:
            line += f" amount={event.amount:g}"
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")


def parse_script(text: str) -> list[ChaosEvent]:
    """Parse the chaos script text format.

    One event per line: ``at=<sec> kind=<kind> target=<node>
    [duration=<sec>] [amount=<sec>]``.  Blank lines and ``#`` comments
    are ignored.  Returns events sorted by time.
    """
    events = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields: dict[str, str] = {}
        for token in line.split():
            if "=" not in token:
                raise ValueError(
                    f"line {lineno}: expected key=value, got {token!r}"
                )
            key, value = token.split("=", 1)
            fields[key] = value
        missing = {"at", "kind", "target"} - fields.keys()
        if missing:
            raise ValueError(
                f"line {lineno}: missing {', '.join(sorted(missing))}"
            )
        unknown = fields.keys() - {"at", "kind", "target", "duration", "amount"}
        if unknown:
            raise ValueError(
                f"line {lineno}: unknown keys {', '.join(sorted(unknown))}"
            )
        events.append(
            ChaosEvent(
                at=float(fields["at"]),
                kind=fields["kind"],
                target=fields["target"],
                duration=float(fields.get("duration", 0.0)),
                amount=float(fields.get("amount", 0.0)),
            )
        )
    return sorted(events)


def random_script(
    seed: int,
    entities: list[str],
    processors: list[str],
    duration: float,
    *,
    count: int = 5,
    kinds: tuple[str, ...] = KINDS,
) -> list[ChaosEvent]:
    """Draw a reproducible fault script from a seeded generator.

    Faults land in the first 75% of the run so detection and recovery
    have time to play out before the sources drain.
    """
    rng = random.Random(seed)
    entity_pool = sorted(entities)
    proc_pool = sorted(processors)
    any_pool = entity_pool + proc_pool
    events = []
    for _ in range(count):
        kind = rng.choice(list(kinds))
        if kind == "entity_crash":
            pool = entity_pool
        elif kind == "proc_crash":
            pool = proc_pool
        else:
            pool = any_pool
        if not pool:
            continue
        target = rng.choice(pool)
        at = round(rng.uniform(0.05, 0.75) * duration, 4)
        fault_duration = (
            round(rng.uniform(0.05, 0.25) * duration, 4)
            if kind in ("partition", "latency", "stall")
            else 0.0
        )
        amount = (
            round(rng.uniform(0.005, 0.05), 4) if kind == "latency" else 0.0
        )
        events.append(
            ChaosEvent(
                at=at,
                kind=kind,
                target=target,
                duration=fault_duration,
                amount=amount,
            )
        )
    return sorted(events)


# ----------------------------------------------------------------------
# Fault application
# ----------------------------------------------------------------------
class ChaosPolicy(TransportChaos):
    """Active transient faults, consulted by the transport per send.

    Partitions make every attempt into a channel fail until they heal;
    latency spikes add wire delay.  Faults expire against the supplied
    clock, so with a virtual clock the healing time is exact.
    """

    def __init__(self, now) -> None:
        self.now = now
        self._partitioned: dict[str, float] = {}
        self._spiked: dict[str, tuple[float, float]] = {}
        self.failed_sends = 0
        self.delayed_sends = 0

    def partition(self, channel_name: str, until: float) -> None:
        """Sever a channel until virtual time ``until``."""
        current = self._partitioned.get(channel_name, 0.0)
        self._partitioned[channel_name] = max(current, until)

    def spike(self, channel_name: str, extra: float, until: float) -> None:
        """Add ``extra`` seconds to each send until time ``until``."""
        self._spiked[channel_name] = (extra, until)

    # -- TransportChaos ------------------------------------------------
    def fail(self, channel_name: str, attempt: int) -> bool:
        until = self._partitioned.get(channel_name)
        if until is None:
            return False
        if self.now() >= until:
            del self._partitioned[channel_name]
            return False
        self.failed_sends += 1
        return True

    def delay(self, channel_name: str) -> float:
        entry = self._spiked.get(channel_name)
        if entry is None:
            return 0.0
        extra, until = entry
        if self.now() >= until:
            del self._spiked[channel_name]
            return 0.0
        self.delayed_sends += 1
        return extra


class ChaosController:
    """Walks the fault script and applies each event to the dataflow."""

    def __init__(
        self,
        flow: LiveDataflow,
        policy: ChaosPolicy,
        metrics: RecoveryReport,
        script: list[ChaosEvent],
    ) -> None:
        self.flow = flow
        self.policy = policy
        self.metrics = metrics
        self.script = sorted(script)
        self.applied = 0

    async def run(self) -> None:
        """Apply every event at its scheduled virtual time."""
        loop = asyncio.get_running_loop()
        start = loop.time()
        for event in self.script:
            delay = start + event.at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            await self.apply(event)

    # ------------------------------------------------------------------
    def _channel_name(self, target: str) -> str | None:
        if target in self.flow.inboxes:
            return self.flow.inboxes[target].name
        entity_id = self.flow.entity_of_processor(target)
        if entity_id is not None:
            return self.flow.proc_channels[entity_id][target].name
        return None

    def _control_of(self, target: str) -> TaskControl | None:
        gateway = self.flow.gateways.get(target)
        if gateway is not None:
            return gateway.control
        entity_id = self.flow.entity_of_processor(target)
        if entity_id is not None:
            return self.flow.processors[(entity_id, target)].control
        return None

    async def apply(self, event: ChaosEvent) -> None:
        """Apply one fault now (no-op if the target is gone already)."""
        flow = self.flow
        loop = asyncio.get_running_loop()
        now = loop.time()
        if event.kind == "entity_crash":
            gateway = flow.gateways.get(event.target)
            if gateway is None or gateway.control.crashed:
                return
            self.metrics.record_failure(event.target, event.kind, now)
            gateway.control.crash()
            await self._destroy_queue(flow.inboxes[event.target])
        elif event.kind == "proc_crash":
            entity_id = flow.entity_of_processor(event.target)
            if entity_id is None:
                return
            task = flow.processors[(entity_id, event.target)]
            if task.control.crashed:
                return
            self.metrics.record_failure(event.target, event.kind, now)
            task.control.crash()
            await self._destroy_queue(
                flow.proc_channels[entity_id][event.target]
            )
        elif event.kind == "partition":
            name = self._channel_name(event.target)
            if name is not None:
                self.policy.partition(name, now + event.duration)
        elif event.kind == "latency":
            name = self._channel_name(event.target)
            if name is not None:
                self.policy.spike(name, event.amount, now + event.duration)
        elif event.kind == "stall":
            control = self._control_of(event.target)
            if control is not None and not control.crashed:
                control.stall()
                loop.call_later(event.duration, control.resume)
        self.applied += 1

    async def _destroy_queue(self, channel) -> None:
        """Fail a crashed task's channel; its queued tuples are lost
        (and un-registered from the work tracker so quiescence
        detection stays exact)."""
        drained = await channel.fail()
        lost = sum(len(batch) for batch in drained)
        if lost:
            self.flow.tracker.done(lost)
            self.metrics.record_lost(lost)


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosSettings:
    """Knobs of the failure-detection/recovery layer.

    Attributes:
        heartbeat_interval: Virtual seconds between heartbeat rounds.
        detection_multiplier: Silence threshold in intervals before a
            node is declared dead.
        recovery: Whether to repair after detection (``False`` gives
            the detection-only baseline the recovery bench compares
            against).
        replay_buffer: Per-stream delegate replay depth at each
            gateway (``0`` disables failover replay).
    """

    heartbeat_interval: float = 0.05
    detection_multiplier: float = 3.0
    recovery: bool = True
    replay_buffer: int = 64

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.detection_multiplier < 1:
            raise ValueError("detection_multiplier must be >= 1")
        if self.replay_buffer < 0:
            raise ValueError("replay_buffer must be >= 0")


class Chaos(RuntimeService):
    """Scripted faults, detection and recovery beside a live run.

    Puts the run on the virtual clock and adds the chaos controller,
    heartbeat monitor, and recovery manager as tasks beside the
    dataflow; attaches a recovery report to the run report.  Forces
    ``time_scale=1.0``: with the virtual loop a "real-time" run costs
    no wall time, and a nonzero scale is required so that pacing,
    heartbeats, and fault timers share one timeline.

    ``script`` may be replaced until the run starts (fault targets are
    usually picked from the planned federation, which exists only once
    the runtime does).
    """

    def __init__(
        self,
        script: list[ChaosEvent] | None = None,
        settings: ChaosSettings | None = None,
    ) -> None:
        self.script = sorted(script or [])
        self.settings = settings or ChaosSettings()
        self.report = RecoveryReport()
        self.monitor: HeartbeatMonitor | None = None
        self.recovery_manager: RecoveryManager | None = None
        self.policy: ChaosPolicy | None = None
        self.controller: ChaosController | None = None

    # ------------------------------------------------------------------
    def attach(self, runtime: LiveRuntime) -> None:
        self.runtime = runtime
        runtime.loop_factory = VirtualClockLoop
        if runtime.settings.time_scale != 1.0:
            runtime.settings = dataclasses.replace(
                runtime.settings, time_scale=1.0
            )

    def start(self, flow: LiveDataflow) -> list[asyncio.Task]:
        loop = asyncio.get_running_loop()
        chaos = self.settings
        policy = ChaosPolicy(loop.time)
        flow.transport.chaos = policy
        if chaos.recovery:
            if chaos.replay_buffer:
                for gateway in flow.gateways.values():
                    gateway.enable_replay(chaos.replay_buffer)
            self.recovery_manager = RecoveryManager(
                self.runtime.planner,
                flow,
                self.report,
                now=loop.time,
            )
            on_failure = self.recovery_manager.on_failure
        else:
            async def on_failure(node_id: str) -> None:
                return None

        nodes = sorted(flow.gateways) + sorted(
            proc for (_, proc) in flow.processors
        )

        def is_alive(node_id: str) -> bool:
            gateway = flow.gateways.get(node_id)
            if gateway is not None:
                return not gateway.control.crashed
            entity_id = flow.entity_of_processor(node_id)
            if entity_id is None:
                return False
            return not flow.processors[(entity_id, node_id)].control.crashed

        self.monitor = HeartbeatMonitor(
            nodes,
            is_alive,
            on_failure,
            self.report,
            interval=chaos.heartbeat_interval,
            detection_multiplier=chaos.detection_multiplier,
        )
        controller = ChaosController(flow, policy, self.report, self.script)
        self.policy = policy
        self.controller = controller
        return [
            asyncio.create_task(controller.run(), name="chaos:script"),
            asyncio.create_task(self.monitor.run(), name="chaos:heartbeat"),
        ]

    def finish(self, report: LiveReport, flow: LiveDataflow) -> LiveReport:
        crashed = {
            entity_id
            for entity_id, gateway in flow.gateways.items()
            if gateway.control.crashed
        }
        violations = audit_federation(
            self.runtime.planner, dataflow=flow, exclude=crashed
        )
        self.report.close(tuple(v.render() for v in violations))
        return dataclasses.replace(report, recovery=self.report)
