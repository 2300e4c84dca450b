"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``  — build and run the demo federation, print the run report;
* ``live``  — run a federation on the live asyncio runtime and print
  throughput, per-entity queue depths, and retry/drop counts;
* ``chaos`` — run the live runtime under a deterministic fault script
  (crashes, partitions, latency spikes, stalls) and print the recovery
  report alongside the usual run summary;
* ``adapt`` — run the live runtime with the closed adaptation loop
  under a drifting-rate workload and print the migration/adaptation
  report alongside the usual run summary;
* ``control`` — run the live runtime with the multi-tenant control
  plane: a scripted churn of query registrations/teardowns under
  admission control and per-tenant fair quotas (``--smoke`` runs the
  short audited churn used by CI);
* ``launch`` — run a federation across N worker OS processes connected
  by the binary wire protocol and print the merged federation report;
* ``serve`` — join a distributed federation as a worker process
  (normally spawned by ``launch``, not typed by hand);
* ``query`` — compile one query-language string against a built-in
  catalog, run it on a small federation, and report its results;
* ``experiments`` — list the paper-reproduction experiment index;
* ``lint`` — run the project's AST linter (DET/ASY/INV/PERF/PROTO packs)
  with ``--select``/``--ignore`` rule filtering;
* ``race`` — explore seeded task interleavings of the migration /
  rebalance / admission / credit scenarios under the happens-before
  race detector, writing a replayable trace for any failure
  (``--replay`` re-runs one bit-identically);
* ``check`` — audit the paper's structural invariants dynamically;
* ``info``  — package and configuration summary.
"""

from __future__ import annotations

import argparse
import sys

EXPERIMENTS = [
    ("E1", "Figure 2 query-graph example", "bench_figure2_query_graph.py"),
    ("E2", "Table 1 cooperation taxonomy", "bench_table1_cooperation.py"),
    ("E3", "dissemination scalability", "bench_dissemination_scalability.py"),
    ("E4", "early filtering at ancestors", "bench_early_filtering.py"),
    ("E5", "coordinator tree protocol", "bench_coordinator_tree.py"),
    ("E6", "allocation quality", "bench_allocation_quality.py"),
    ("E7", "adaptive repartitioning", "bench_adaptive_repartitioning.py"),
    ("E8", "stream delegation (Figure 3)", "bench_delegation.py"),
    ("E9", "PR-aware operator placement", "bench_operator_placement.py"),
    ("E10", "adaptive operator ordering", "bench_operator_ordering.py"),
    (
        "E11",
        "assignment vs partitioning",
        "bench_assignment_vs_partitioning.py",
    ),
    ("E12", "end-to-end composition", "bench_end_to_end.py"),
    ("E13", "entity churn resilience", "bench_entity_churn.py"),
    ("E14", "monitored routing signal", "bench_monitored_routing.py"),
    ("E16", "failure recovery under chaos", "bench_chaos_recovery.py"),
    ("E17", "live adaptation vs static allocation", "bench_live_adaptation.py"),
    (
        "E19",
        "partitioned joins/aggregates",
        "bench_partitioned_operators.py",
    ),
    (
        "E20",
        "multi-query shared computation",
        "bench_shared_computation.py",
    ),
    (
        "E21",
        "multi-tenant control-plane churn",
        "bench_control_churn.py",
    ),
]


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core.system import build_demo_system

    system, queries = build_demo_system(
        seed=args.seed, entity_count=args.entities, query_count=args.queries
    )
    report = system.run(duration=args.duration)
    print(f"demo federation: {args.entities} entities, {len(queries)} queries")
    for line in report.summary_lines():
        print(f"  {line}")
    return 0


def _stock_runtime(args: argparse.Namespace, label: str, make):
    """The planned stock-catalog runtime ``live``/``chaos``/``adapt`` share.

    ``make()`` returns the command's ``(LiveSettings, services)``; a
    ``ValueError`` out of it is reported as ``invalid <label> settings``
    and ``None`` is returned (the caller exits 2).  Otherwise the
    generated workload is submitted and the runtime is ready to run.
    """
    from repro.core.system import SystemConfig
    from repro.live import LiveRuntime
    from repro.query.generator import WorkloadConfig, generate_workload
    from repro.streams.catalog import stock_catalog

    catalog = stock_catalog(exchanges=2, rate=args.rate)
    config = SystemConfig(
        entity_count=args.entities,
        processors_per_entity=args.processors,
        seed=args.seed,
    )
    try:
        settings, services = make()
    except ValueError as exc:
        print(f"invalid {label} settings: {exc}", file=sys.stderr)
        return None
    runtime = LiveRuntime(catalog, config, settings, services=services)
    workload = generate_workload(
        catalog,
        WorkloadConfig(
            query_count=args.queries, join_fraction=0.0, aggregate_fraction=0.2
        ),
        seed=args.seed,
    )
    runtime.submit(workload.queries)
    return runtime


def _print_report(report, *, queues: bool = False) -> None:
    for line in report.summary_lines():
        print(f"  {line}")
    if queues:
        print("per-entity queues:")
        for line in report.queue_lines():
            print(f"  {line}")


def _cmd_live(args: argparse.Namespace) -> int:
    from repro.live import LiveSettings

    def make():
        return LiveSettings(
            duration=args.duration,
            time_scale=args.time_scale,
            batch_size=args.batch_size,
            channel_capacity=args.capacity,
        ), []

    runtime = _stock_runtime(args, "live", make)
    if runtime is None:
        return 2
    report = runtime.run()
    print(
        f"live federation: {args.entities} entities x {args.processors} "
        f"processors, {args.queries} queries, batch size {args.batch_size}"
    )
    _print_report(report, queues=True)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.live import (
        Chaos,
        ChaosSettings,
        LiveSettings,
        format_script,
        parse_script,
        random_script,
    )

    def make():
        settings = LiveSettings(
            duration=args.duration,
            batch_size=args.batch_size,
            channel_capacity=args.capacity,
        )
        chaos = ChaosSettings(
            heartbeat_interval=args.heartbeat,
            recovery=not args.no_recovery,
            replay_buffer=args.replay_buffer,
        )
        return settings, [Chaos(settings=chaos)]

    runtime = _stock_runtime(args, "chaos", make)
    if runtime is None:
        return 2
    chaos = runtime.service(Chaos)
    if args.script is not None:
        try:
            with open(args.script, encoding="utf-8") as handle:
                script = parse_script(handle.read())
        except (OSError, ValueError) as exc:
            print(f"cannot load chaos script: {exc}", file=sys.stderr)
            return 2
    else:
        entities = sorted(runtime.planner.entities)
        processors = sorted(
            proc
            for entity in runtime.planner.entities.values()
            for proc in entity.processors
        )
        script = random_script(
            args.seed, entities, processors, args.duration, count=args.faults
        )
    chaos.script = sorted(script)
    report = runtime.run()
    print(
        f"chaos run: {args.entities} entities x {args.processors} "
        f"processors, {args.queries} queries, "
        f"{len(chaos.script)} scripted faults, "
        f"recovery {'off' if args.no_recovery else 'on'}"
    )
    print("fault script:")
    for line in format_script(chaos.script).splitlines():
        print(f"  {line}")
    _print_report(report)
    # Without recovery, dangling structure around the dead is the
    # expected baseline; with it, a dirty audit is a recovery bug.
    dirty = not args.no_recovery and report.recovery.audit_violations
    return 1 if dirty else 0


def _cmd_adapt(args: argparse.Namespace) -> int:
    from repro.live import Adaptation, AdaptationSettings, LiveSettings
    from repro.workloads import apply_rate_drift, crossfade_rates

    def make():
        settings = LiveSettings(
            duration=args.duration,
            batch_size=args.batch_size,
            channel_capacity=args.capacity,
            send_timeout=2.0,
            max_retries=6,
        )
        adaptation = AdaptationSettings(
            period=args.period,
            strategy=args.strategy,
            imbalance_threshold=args.threshold,
        )
        return settings, [] if args.static else [Adaptation(adaptation)]

    runtime = _stock_runtime(args, "adaptation", make)
    if runtime is None:
        return 2
    hot = {
        stream_id
        for stream_id in runtime.catalog.stream_ids()
        if stream_id.startswith("exchange-0")
    }
    apply_rate_drift(
        runtime.planner.sources,
        crossfade_rates(
            runtime.catalog,
            hot,
            factor_up=args.drift_up,
            factor_down=args.drift_down,
            duration=args.duration,
        ),
    )
    report = runtime.run()
    mode = "static" if args.static else f"adaptive/{args.strategy}"
    print(
        f"adaptation run ({mode}): {args.entities} entities x "
        f"{args.processors} processors, {args.queries} queries, "
        f"drifting rates x{args.drift_up}/x{args.drift_down}"
    )
    _print_report(report, queues=True)
    dirty = report.adaptation is not None and report.adaptation.audit_violations
    return 1 if dirty else 0


def _cmd_control(args: argparse.Namespace) -> int:
    from repro.control import Control, ControlSettings
    from repro.live import Adaptation, LiveRuntime, LiveSettings
    from repro.workloads import churn_workload

    if args.smoke:
        from repro.analysis.invariants import run_control_smoke

        violations = run_control_smoke(seed=args.seed)
        if violations:
            for violation in violations:
                print(violation.render())
            print(f"{len(violations)} invariant violation(s)")
            return 1
        print(
            "control smoke passed: churn script fully accounted, "
            "structural audit clean, multi-tenant delivery"
        )
        return 0
    try:
        catalog, config, queries, events = churn_workload(
            seed=args.seed,
            duration=args.duration,
            churn_per_minute=args.churn,
            quota_rate=args.quota_rate,
        )
        settings = LiveSettings(
            duration=args.duration,
            time_scale=args.time_scale,
            batch_size=args.batch_size,
        )
        control = ControlSettings(retry_period=args.retry_period)
    except ValueError as exc:
        print(f"invalid control settings: {exc}", file=sys.stderr)
        return 2
    runtime = LiveRuntime(
        catalog,
        config,
        settings,
        services=[Adaptation(), Control(control, events=events)],
    )
    runtime.submit(queries)
    report = runtime.run()
    registers = sum(1 for e in events if e.action == "register")
    print(
        f"control run: {len(queries)} base queries, "
        f"{registers} arrivals + {len(events) - registers} departures "
        f"scripted over {args.duration:g}s "
        f"({args.churn:g} lifecycle events per virtual minute)"
    )
    _print_report(report)
    return 0


def _cmd_launch(args: argparse.Namespace) -> int:
    from repro.core.system import SystemConfig
    from repro.distributed import DistributedCoordinator
    from repro.live import LiveSettings
    from repro.query.generator import WorkloadConfig, generate_workload
    from repro.streams.catalog import stock_catalog

    catalog = stock_catalog(exchanges=2, rate=args.rate)
    config = SystemConfig(
        entity_count=args.entities,
        processors_per_entity=args.processors,
        seed=args.seed,
    )
    try:
        settings = LiveSettings(
            duration=args.duration,
            batch_size=args.batch_size,
            channel_capacity=args.capacity,
        )
    except ValueError as exc:
        print(f"invalid live settings: {exc}", file=sys.stderr)
        return 2
    workload = generate_workload(
        catalog,
        WorkloadConfig(
            query_count=args.queries, join_fraction=0.0, aggregate_fraction=0.2
        ),
        seed=args.seed,
    )
    coordinator = DistributedCoordinator(
        catalog,
        config,
        workload.queries,
        settings,
        workers=args.workers,
    )
    report = coordinator.run()
    print(
        f"distributed federation: {args.entities} entities across "
        f"{args.workers} worker processes, {args.queries} queries, "
        f"{len(coordinator.required_links)} cross-worker links"
    )
    for line in report.summary_lines():
        print(f"  {line}")
    print("per-entity queues:")
    for line in report.queue_lines():
        print(f"  {line}")
    if coordinator.violations:
        for violation in coordinator.violations:
            print(violation.render())
        print(f"{len(coordinator.violations)} invariant violation(s)")
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.distributed import serve

    try:
        return serve(args.coordinator)
    except (ValueError, OSError) as exc:
        print(f"cannot reach coordinator: {exc}", file=sys.stderr)
        return 2


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.core.system import FederatedSystem, SystemConfig
    from repro.lang import QuerySyntaxError, compile_query
    from repro.streams.catalog import network_catalog, stock_catalog

    catalog = (
        stock_catalog(exchanges=2)
        if args.catalog == "stocks"
        else network_catalog()
    )
    try:
        spec = compile_query(args.text, catalog, query_id="cli-query")
    except QuerySyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    system = FederatedSystem(
        catalog,
        SystemConfig(entity_count=4, processors_per_entity=2, seed=args.seed),
    )
    system.submit([spec])
    report = system.run(duration=args.duration)
    entity = system.allocation_result.assignment["cli-query"]
    print(f"query allocated to {entity}")
    print(f"streams: {', '.join(spec.input_streams)}")
    print(f"results in {args.duration:.0f}s: {report.results}")
    print(f"mean latency: {report.mean_result_latency * 1000:.1f} ms")
    pr = system.tracker.pr("cli-query")
    print(f"performance ratio: {pr:.1f}" if pr is not None else
          "performance ratio: n/a (no results)")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    print(f"{'id':4s} {'paper artifact / claim':36s} bench target")
    for exp_id, title, target in EXPERIMENTS:
        print(f"{exp_id:4s} {title:36s} benchmarks/{target}")
    print("\nrun all with: PYTHONPATH=src python -m pytest benchmarks/ -q")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.core.portal import ALLOCATION_NAMES
    from repro.core.system import DISSEMINATION_NAMES
    from repro.placement.factory import PLACER_NAMES

    print(f"repro {repro.__version__} — reproduction of Zhou, ICDE 2006")
    print(f"  dissemination strategies: {', '.join(DISSEMINATION_NAMES)}")
    print(f"  allocation strategies:    {', '.join(ALLOCATION_NAMES)}")
    print(f"  placement strategies:     {', '.join(PLACER_NAMES)}")
    print(f"  experiments:              {len(EXPERIMENTS)} (see 'experiments')")
    return 0


def _parse_rule_prefixes(spec: str | None, known: list[str]) -> list[str] | None:
    """Validate a comma-separated rule/prefix list against known rules.

    Returns the cleaned prefix list, or raises ``ValueError`` naming the
    first prefix that matches no registered rule id.
    """
    if spec is None:
        return None
    prefixes = [part.strip() for part in spec.split(",") if part.strip()]
    for prefix in prefixes:
        if not any(rule_id.startswith(prefix) for rule_id in known):
            raise ValueError(
                f"unknown rule or prefix {prefix!r} "
                f"(known rules: {', '.join(known)})"
            )
    return prefixes


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the project linter.

    Exit codes: 0 = clean, 1 = findings survived, 2 = usage error
    (unknown rule in ``--select``/``--ignore``) or unreadable input.
    """
    from repro.analysis import all_rules, analyze_paths, render_json, render_text

    known = sorted(rule.id for rule in all_rules()) + ["E999"]
    try:
        select = _parse_rule_prefixes(args.select, known)
        ignore = _parse_rule_prefixes(args.ignore, known)
    except ValueError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    try:
        findings = analyze_paths(args.paths)
    except OSError as exc:
        print(f"lint: cannot read input: {exc}", file=sys.stderr)
        return 2
    if select is not None:
        findings = [
            finding
            for finding in findings
            if any(finding.rule.startswith(prefix) for prefix in select)
        ]
    if ignore is not None:
        findings = [
            finding
            for finding in findings
            if not any(finding.rule.startswith(prefix) for prefix in ignore)
        ]
    if args.json:
        print(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0


def _cmd_race(args: argparse.Namespace) -> int:
    """Explore seeded interleavings; replay recorded failure traces.

    Exit codes: 0 = every explored schedule validated, 1 = at least one
    failure (a replayable trace was written), 2 = usage error
    (unknown scenario, unreadable/malformed trace file).
    """
    from repro.analysis.concurrency import RaceExplorer, parse_trace

    scenarios = args.scenario or None
    schedules = args.schedules
    if args.smoke:
        # The CI fast path: a bounded budget over the two scenarios
        # exercising migration and admission control machinery.
        scenarios = scenarios or ["migration", "admission"]
        schedules = min(schedules, 25) if schedules else 25
    try:
        explorer = RaceExplorer(
            scenarios=scenarios,
            schedules=schedules or 560,
            seed=args.seed,
            trace_dir=args.trace_dir,
            progress=print,
        )
    except ValueError as exc:
        print(f"race: {exc}", file=sys.stderr)
        return 2

    if args.replay is not None:
        try:
            with open(args.replay, encoding="utf-8") as handle:
                trace = parse_trace(handle.read())
        except (OSError, ValueError) as exc:
            print(f"race: cannot load trace: {exc}", file=sys.stderr)
            return 2
        try:
            result = explorer.replay(trace)
        except ValueError as exc:
            print(f"race: {exc}", file=sys.stderr)
            return 2
        print(
            f"replayed {result.scenario} seed={result.seed} "
            f"strategy={result.strategy}: {result.decisions} schedule "
            f"decisions, fingerprint {result.checksum}"
        )
        if trace.checksum is not None and trace.checksum != result.checksum:
            print(
                f"warning: schedule fingerprint drifted from recorded "
                f"{trace.checksum} (code under the trace has changed)"
            )
        if result.ok:
            print("replay validated: no failure reproduced")
            return 0
        print(result.failure.render())
        return 1

    sweep = explorer.run()
    for note in sweep.notes:
        print(f"note: {note}")
    failures = sweep.failures
    print(
        f"explored {sweep.explored} schedules across "
        f"{len(explorer.names)} scenario(s): "
        f"{len(failures)} failure(s)"
    )
    if failures:
        for run in failures:
            print(f"  {run.scenario} seed={run.seed}: {run.trace_path}")
        print("replay with: python -m repro race --replay <trace>")
        return 1
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """Audit the paper's structural invariants on a demo federation."""
    from repro.analysis.invariants import (
        run_partition_smoke,
        run_sharing_smoke,
        selfcheck,
    )

    violations = selfcheck(
        seed=args.seed,
        entity_count=args.entities,
        query_count=args.queries,
    )
    violations += run_partition_smoke(seed=args.seed)
    violations += run_sharing_smoke(seed=args.seed)
    checks = (
        "coordinator cluster bounds, dissemination tree + interest "
        "coverage, delegation totality, hosting consistency, "
        "allocation balance, partitioned stage layout + live wiring "
        "after skew rebalance, shared-computation group layout + "
        "shared/unshared result parity"
    )
    if args.distributed:
        from repro.distributed import run_distributed_smoke

        violations += run_distributed_smoke(seed=args.seed)
        checks += (
            ", distributed socket links, frame drain, tuple ledger"
        )
    if violations:
        for violation in violations:
            print(violation.render())
        print(f"{len(violations)} invariant violation(s)")
        return 1
    print(f"invariants hold: {checks}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Two-layer federated stream processing (ICDE 2006 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the demo federation")
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--entities", type=int, default=6)
    demo.add_argument("--queries", type=int, default=60)
    demo.add_argument("--duration", type=float, default=10.0)
    demo.set_defaults(handler=_cmd_demo)

    live = sub.add_parser(
        "live", help="run a federation on the live asyncio runtime"
    )
    live.add_argument("--seed", type=int, default=7)
    live.add_argument("--entities", type=int, default=6)
    live.add_argument("--processors", type=int, default=3)
    live.add_argument("--queries", type=int, default=48)
    live.add_argument("--duration", type=float, default=5.0)
    live.add_argument("--rate", type=float, default=100.0)
    live.add_argument("--batch-size", type=int, default=8)
    live.add_argument("--capacity", type=int, default=256)
    live.add_argument(
        "--time-scale",
        type=float,
        default=0.0,
        help="wall seconds per virtual second (0 = as fast as possible)",
    )
    live.set_defaults(handler=_cmd_live)

    chaos = sub.add_parser(
        "chaos",
        help="run the live runtime under a deterministic fault script",
    )
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--entities", type=int, default=4)
    chaos.add_argument("--processors", type=int, default=2)
    chaos.add_argument("--queries", type=int, default=24)
    chaos.add_argument("--duration", type=float, default=5.0)
    chaos.add_argument("--rate", type=float, default=100.0)
    chaos.add_argument("--batch-size", type=int, default=8)
    chaos.add_argument("--capacity", type=int, default=256)
    chaos.add_argument(
        "--faults",
        type=int,
        default=5,
        help="number of seeded random faults (ignored with --script)",
    )
    chaos.add_argument(
        "--script",
        default=None,
        help="chaos script file (at=.. kind=.. target=.. per line)",
    )
    chaos.add_argument(
        "--heartbeat",
        type=float,
        default=0.05,
        help="heartbeat interval in virtual seconds",
    )
    chaos.add_argument(
        "--replay-buffer",
        type=int,
        default=64,
        help="per-stream delegate replay depth (0 disables replay)",
    )
    chaos.add_argument(
        "--no-recovery",
        action="store_true",
        help="detect failures but do not repair (baseline)",
    )
    chaos.set_defaults(handler=_cmd_chaos)

    adapt = sub.add_parser(
        "adapt",
        help="run the live runtime with the closed adaptation loop",
    )
    adapt.add_argument("--seed", type=int, default=17)
    adapt.add_argument("--entities", type=int, default=4)
    adapt.add_argument("--processors", type=int, default=3)
    adapt.add_argument("--queries", type=int, default=32)
    adapt.add_argument("--duration", type=float, default=3.0)
    adapt.add_argument("--rate", type=float, default=100.0)
    adapt.add_argument("--batch-size", type=int, default=16)
    adapt.add_argument("--capacity", type=int, default=256)
    adapt.add_argument(
        "--period",
        type=float,
        default=0.5,
        help="control-loop period in virtual seconds",
    )
    adapt.add_argument(
        "--strategy",
        choices=("scratch", "cut", "hybrid"),
        default="hybrid",
        help="repartitioning strategy for the adaptation loop",
    )
    adapt.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="observed imbalance ratio that triggers migration",
    )
    adapt.add_argument(
        "--drift-up",
        type=float,
        default=6.0,
        help="rate multiplier the hot exchange ramps up to",
    )
    adapt.add_argument(
        "--drift-down",
        type=float,
        default=0.25,
        help="rate multiplier the cold streams ramp down to",
    )
    adapt.add_argument(
        "--static",
        action="store_true",
        help="disable adaptation (baseline under the same drift)",
    )
    adapt.set_defaults(handler=_cmd_adapt)

    control = sub.add_parser(
        "control",
        help="run the live runtime with the multi-tenant control plane",
    )
    control.add_argument("--seed", type=int, default=7)
    control.add_argument("--duration", type=float, default=5.0)
    control.add_argument(
        "--churn",
        type=float,
        default=240.0,
        help="query lifecycle events (arrivals+departures) per virtual minute",
    )
    control.add_argument(
        "--quota-rate",
        type=float,
        default=200.0,
        help="aggregate tenant quota in tuples per virtual second "
        "(weighted-fair across tenants)",
    )
    control.add_argument(
        "--retry-period",
        type=float,
        default=0.25,
        help="virtual seconds between admission-queue retries",
    )
    control.add_argument("--batch-size", type=int, default=8)
    control.add_argument(
        "--time-scale",
        type=float,
        default=0.0,
        help="wall seconds per virtual second (0 = as fast as possible)",
    )
    control.add_argument(
        "--smoke",
        action="store_true",
        help="run the short audited churn smoke used by CI and exit",
    )
    control.set_defaults(handler=_cmd_control)

    launch = sub.add_parser(
        "launch",
        help="run a federation across N worker processes over sockets",
    )
    launch.add_argument("--seed", type=int, default=7)
    launch.add_argument("--workers", type=int, default=2)
    launch.add_argument("--entities", type=int, default=6)
    launch.add_argument("--processors", type=int, default=3)
    launch.add_argument("--queries", type=int, default=48)
    launch.add_argument("--duration", type=float, default=5.0)
    launch.add_argument("--rate", type=float, default=100.0)
    launch.add_argument("--batch-size", type=int, default=8)
    launch.add_argument("--capacity", type=int, default=256)
    launch.set_defaults(handler=_cmd_launch)

    serve = sub.add_parser(
        "serve",
        help="join a distributed federation as a worker process",
    )
    serve.add_argument(
        "--coordinator",
        required=True,
        metavar="HOST:PORT",
        help="address of the coordinator's control socket",
    )
    serve.set_defaults(handler=_cmd_serve)

    query = sub.add_parser("query", help="compile and run one query")
    query.add_argument("text", help="query text (see repro.lang)")
    query.add_argument(
        "--catalog", choices=("stocks", "network"), default="stocks"
    )
    query.add_argument("--seed", type=int, default=1)
    query.add_argument("--duration", type=float, default=5.0)
    query.set_defaults(handler=_cmd_query)

    experiments = sub.add_parser(
        "experiments", help="list the paper-reproduction experiments"
    )
    experiments.set_defaults(handler=_cmd_experiments)

    lint = sub.add_parser(
        "lint",
        help="run the project's AST linter (DET/ASY/INV/PERF/PROTO rule packs)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests", "benchmarks"],
        help="files or directories to lint (default: src tests benchmarks)",
    )
    lint.add_argument(
        "--json", action="store_true", help="emit the repro-lint/1 JSON report"
    )
    lint.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="only report rules matching these comma-separated ids/prefixes "
        "(e.g. ASY,PROTO001)",
    )
    lint.add_argument(
        "--ignore",
        default=None,
        metavar="RULES",
        help="drop rules matching these comma-separated ids/prefixes",
    )
    lint.set_defaults(handler=_cmd_lint)

    race = sub.add_parser(
        "race",
        help="explore seeded task interleavings with the race detector on",
    )
    race.add_argument(
        "--schedules",
        type=int,
        default=None,
        help="total schedules to explore across scenarios (default 560)",
    )
    race.add_argument("--seed", type=int, default=0)
    race.add_argument(
        "--scenario",
        action="append",
        choices=("migration", "rebalance", "admission", "credit"),
        help="restrict to these scenarios (repeatable; default: all)",
    )
    race.add_argument(
        "--smoke",
        action="store_true",
        help="CI fast path: 25 schedules over migration + admission",
    )
    race.add_argument(
        "--replay",
        default=None,
        metavar="TRACE",
        help="re-run one recorded failure trace instead of sweeping",
    )
    race.add_argument(
        "--trace-dir",
        default="race-traces",
        help="directory for failure trace files (default: race-traces)",
    )
    race.set_defaults(handler=_cmd_race)

    check = sub.add_parser(
        "check",
        help="audit the paper's structural invariants on a demo federation",
    )
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--entities", type=int, default=6)
    check.add_argument("--queries", type=int, default=60)
    check.add_argument(
        "--distributed",
        action="store_true",
        help="also run a 2-worker federation and audit its socket links",
    )
    check.set_defaults(handler=_cmd_check)

    info = sub.add_parser("info", help="package summary")
    info.set_defaults(handler=_cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
