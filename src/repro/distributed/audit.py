"""Distributed-mode checks for the runtime invariant auditor.

Extends ``python -m repro check`` to the multi-process runtime: after a
federation run, every planned cross-worker link must have been backed
by exactly one connected socket peer on both endpoints, no worker may
finish with frames still undrained (queued for write or decoded but
never admitted), and the federation-wide tuple ledger must balance
(everything sent across a socket was admitted on the other side).

The functions are pure — they judge the metrics a coordinator already
collected — so the same checks run inside the CLI smoke audit, the
test-suite, and post-hoc over a saved benchmark artefact.
"""

from __future__ import annotations

from repro.analysis.invariants import InvariantViolation


def audit_links(
    required_links: set[tuple[int, int]],
    worker_metrics: dict[int, dict],
) -> list[InvariantViolation]:
    """Every planned cross-worker link == exactly one socket, both ends."""
    violations: list[InvariantViolation] = []
    for low, high in sorted(required_links):
        for here, there in ((low, high), (high, low)):
            metrics = worker_metrics.get(here)
            if metrics is None:
                violations.append(
                    InvariantViolation(
                        "distributed-links",
                        f"worker-{here}",
                        "no metrics reported for a linked worker",
                    )
                )
                continue
            count = metrics.get("peer_counts", {}).get(str(there), 0)
            if count != 1:
                violations.append(
                    InvariantViolation(
                        "distributed-links",
                        f"worker-{here}",
                        f"planned link to worker-{there} backed by "
                        f"{count} connections (want exactly 1)",
                    )
                )
    for worker_id in sorted(worker_metrics):
        counts = worker_metrics[worker_id].get("peer_counts", {})
        for peer, count in sorted(counts.items()):
            if count > 1:
                violations.append(
                    InvariantViolation(
                        "distributed-links",
                        f"worker-{worker_id}",
                        f"{count} duplicate connections to worker-{peer}",
                    )
                )
    return violations


def audit_drain(worker_metrics: dict[int, dict]) -> list[InvariantViolation]:
    """No worker shut down with frames still queued or unadmitted."""
    violations: list[InvariantViolation] = []
    for worker_id in sorted(worker_metrics):
        undrained = worker_metrics[worker_id].get("undrained_frames", 0)
        if undrained:
            violations.append(
                InvariantViolation(
                    "distributed-drain",
                    f"worker-{worker_id}",
                    f"{undrained} frames undrained at shutdown",
                )
            )
    return violations


def audit_credits(worker_metrics: dict[int, dict]) -> list[InvariantViolation]:
    """No sender saw more credits returned than it ever handed out.

    ``CreditGate`` caps its pool at the initial window and counts the
    overflow; a nonzero count means a peer sent duplicate or stray
    CREDIT frames — a flow-control protocol violation even though the
    cap kept the window itself honest.
    """
    violations: list[InvariantViolation] = []
    for worker_id in sorted(worker_metrics):
        excess = worker_metrics[worker_id].get("excess_credit_returns", 0)
        if excess:
            violations.append(
                InvariantViolation(
                    "distributed-credits",
                    f"worker-{worker_id}",
                    f"{excess} credit returns exceeded the initial "
                    "flow-control window",
                )
            )
    return violations


def audit_ledger(worker_metrics: dict[int, dict]) -> list[InvariantViolation]:
    """Federation-wide tuple conservation across sockets."""
    sent = sum(m.get("sent", 0) for m in worker_metrics.values())
    received = sum(m.get("received", 0) for m in worker_metrics.values())
    if sent != received:
        return [
            InvariantViolation(
                "distributed-ledger",
                "federation",
                f"{sent} tuples sent across sockets but {received} "
                "admitted",
            )
        ]
    return []


def audit_distributed_run(
    *,
    required_links: set[tuple[int, int]],
    worker_metrics: dict[int, dict],
) -> list[InvariantViolation]:
    """All distributed-mode checks over one finished federation run."""
    return (
        audit_links(required_links, worker_metrics)
        + audit_drain(worker_metrics)
        + audit_credits(worker_metrics)
        + audit_ledger(worker_metrics)
    )


def run_distributed_smoke(
    *, workers: int = 2, duration: float = 0.6, seed: int = 7
) -> list[InvariantViolation]:
    """Run a tiny federation and audit it (``repro check --distributed``).

    Runs ``parity_workload``, scaled down so the smoke check stays fast,
    and fails on an audit violation or an empty result set; that the
    results equal the simulator's is the differential matrix's claim
    (``tests/test_differential.py``).
    """
    from repro.distributed.coordinator import DistributedCoordinator
    from repro.live.runtime import LiveSettings
    from repro.workloads import parity_workload

    catalog, config, queries = parity_workload(seed)
    coordinator = DistributedCoordinator(
        catalog,
        config,
        queries,
        LiveSettings(duration=duration, batch_size=4),
        workers=workers,
        duration=duration,
    )
    report = coordinator.run()
    violations = list(coordinator.violations)
    if report.results == 0:
        violations.append(
            InvariantViolation(
                "distributed-smoke",
                "federation",
                "smoke run delivered zero results",
            )
        )
    return violations
