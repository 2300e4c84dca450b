"""Dynamic checkers for the paper's structural invariants.

Each checker inspects one live structure and returns a list of
:class:`InvariantViolation` (empty = healthy), so callers choose their
own severity: tests assert emptiness, the chaos harness attaches the
audit to its recovery report, and the adaptation controller records a
post-migration audit every round.

The invariants come straight from the paper:

* **coordinator** — every non-root cluster keeps between ``k`` and
  ``3k − 1`` members and layer 0 partitions the membership (§3.2.1).
* **dissemination** — per-stream trees stay actual trees (bidirectional
  parent/child links, no cycles, fanout bound) and every edge filter is
  a superset of the interests registered below it, so early filtering
  never starves a query (§3.1).
* **delegation** — every stream an entity receives has exactly one
  delegation processor while the entity has any processor at all (§4).
* **hosting** — the allocator's assignment, the entities' hosted
  queries, and tree membership agree (§3.2.2 placement).
* **balance** — the partition imbalance of the current assignment stays
  under a caller-chosen bound (§3.2.2).
* **partitions** — partition-parallel deployments keep a consistent
  layout: one fragment per partition in index order, a router whose
  spec matches the fragment fan-out, and (when the entity's cluster is
  wide enough) partitions spread across distinct processors (§4.1).
* **sharing** — shared-computation groups stay well-formed: every
  member is hosted, tagged, and holds exactly its tap fragment, and the
  shared prefix fingerprints concatenated with each member's tap-suffix
  fingerprints reconstruct the member's own canonical pipeline, so the
  multi-query rewrite provably evaluates the same queries.
* **wiring** — every live processor's execution tables (fragments,
  out-edges, delegate head routes) equal the derivation of the current
  hosting model, so no online change patched a table behind the
  model's back or edited the model without re-deriving (§4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.core.wiring import derive_wiring
from repro.dissemination.tree import SOURCE, DisseminationTree, TreeStructureError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.allocation.query_graph import QueryGraph
    from repro.coordination.tree import CoordinatorTree
    from repro.core.entity import Entity
    from repro.core.system import FederatedSystem
    from repro.live.runtime import LiveDataflow


@dataclass(frozen=True)
class InvariantViolation:
    """One violated structural invariant.

    ``check`` names the checker ("coordinator", "dissemination",
    "delegation", "hosting", "wiring", ...), ``subject`` the entity,
    stream, or structure concerned, and ``detail`` is human-readable.
    """

    check: str
    subject: str
    detail: str

    def render(self) -> str:
        """Format as ``check(subject): detail``."""
        return f"{self.check}({self.subject}): {self.detail}"


def check_coordinator_tree(
    tree: "CoordinatorTree",
) -> list[InvariantViolation]:
    """§3.2.1 cluster-size bounds and partition/leader consistency.

    Wraps :meth:`CoordinatorTree.check_invariants`, which already
    verifies ``k <= |cluster| <= 3k - 1`` for every non-root cluster.
    """
    return [
        InvariantViolation("coordinator", "tree", problem)
        for problem in tree.check_invariants()
    ]


def check_dissemination_tree(
    tree: DisseminationTree,
) -> list[InvariantViolation]:
    """Tree structure + interest-superset consistency for one stream."""
    violations: list[InvariantViolation] = []
    stream = tree.stream_id

    # --- structural: bidirectional links, reachability, fanout -------
    for entity in tree.entities:
        parent = tree.parent_of(entity)
        if parent != SOURCE and not tree.contains(parent):
            violations.append(
                InvariantViolation(
                    "dissemination",
                    stream,
                    f"{entity}'s parent {parent} is not in the tree",
                )
            )
        elif entity not in tree.children_of(parent):
            violations.append(
                InvariantViolation(
                    "dissemination",
                    stream,
                    f"{entity} is not listed among {parent}'s children",
                )
            )
        try:
            tree.depth_of(entity)
        except TreeStructureError:
            violations.append(
                InvariantViolation(
                    "dissemination",
                    stream,
                    f"{entity} is unreachable from the source (cycle)",
                )
            )
    for node in [SOURCE, *tree.entities]:
        for child in tree.children_of(node):
            if not tree.contains(child) or tree.parent_of(child) != node:
                violations.append(
                    InvariantViolation(
                        "dissemination",
                        stream,
                        f"child link {node} -> {child} has no back link",
                    )
                )
        if tree.fanout(node) > tree.max_fanout:
            violations.append(
                InvariantViolation(
                    "dissemination",
                    stream,
                    f"{node} has fanout {tree.fanout(node)} "
                    f"> bound {tree.max_fanout}",
                )
            )

    # --- semantic: every edge filter covers the interests below it ---
    for entity in tree.entities:
        interests = tree.interests_of(entity)
        if not interests:
            continue
        node = entity
        hops = 0
        while node != SOURCE and hops <= len(tree.entities) + 1:
            aggregate = tree.subtree_filter(node)
            if aggregate is None:
                violations.append(
                    InvariantViolation(
                        "dissemination",
                        stream,
                        f"edge into {node} forwards nothing but "
                        f"{entity} registered interests below it",
                    )
                )
                break
            for interest in interests:
                if not aggregate.interest.covers(interest):
                    violations.append(
                        InvariantViolation(
                            "dissemination",
                            stream,
                            f"edge filter into {node} does not cover an "
                            f"interest of {entity} (early filtering "
                            "would starve it)",
                        )
                    )
            node = tree.parent_of(node)
            hops += 1
    return violations


def check_delegation(entity: "Entity") -> list[InvariantViolation]:
    """§4 delegation totality for one entity.

    Every stream the entity's hosted queries consume must have exactly
    one delegation processor, and that processor must still exist.  An
    entity that has lost *all* processors cannot delegate and is not
    reported here (recovery re-homes its queries instead).
    """
    violations: list[InvariantViolation] = []
    scheme = entity.delegation
    if not scheme.processor_ids:
        return violations
    for stream_id in sorted(entity.interests_by_stream()):
        delegate = scheme.delegate_of(stream_id)
        if delegate is None:
            violations.append(
                InvariantViolation(
                    "delegation",
                    entity.entity_id,
                    f"stream {stream_id} is consumed but has no "
                    "delegation processor",
                )
            )
        elif delegate not in scheme.processor_ids:
            violations.append(
                InvariantViolation(
                    "delegation",
                    entity.entity_id,
                    f"stream {stream_id} is delegated to missing "
                    f"processor {delegate}",
                )
            )
    return violations


def check_partitions(entity: "Entity") -> list[InvariantViolation]:
    """Partition-parallel layout consistency for one entity's queries.

    For every hosted query with a partitioned deployment: the fragment
    chain must be exactly pre + one fragment per partition (in index
    order) + merge, the router's spec must agree with that fan-out, and
    the partition fragments must sit on pairwise distinct processors
    whenever the entity has at least as many processors as partitions
    (the §4.1 spread constraint).
    """
    violations: list[InvariantViolation] = []
    procs_available = len(entity.processors)
    for query_id, hosted in sorted(entity.hosted.items()):
        deployment = hosted.partition
        if deployment is None:
            continue
        parts = len(deployment.parts)
        expected = parts + 2
        if len(hosted.fragments) != expected or len(
            hosted.chain_procs
        ) != len(hosted.fragments):
            violations.append(
                InvariantViolation(
                    "partitions",
                    query_id,
                    f"expected {expected} fragments (pre + {parts} "
                    f"partitions + merge) with matching processors, got "
                    f"{len(hosted.fragments)} fragments on "
                    f"{len(hosted.chain_procs)} processors",
                )
            )
            continue
        if deployment.router.spec.parts != parts:
            violations.append(
                InvariantViolation(
                    "partitions",
                    query_id,
                    f"router spec has {deployment.router.spec.parts} "
                    f"parts but the deployment has {parts} fragments",
                )
            )
        for index, stage in enumerate(deployment.stages):
            if stage.index != index:
                violations.append(
                    InvariantViolation(
                        "partitions",
                        query_id,
                        f"partition fragment at position {index} carries "
                        f"stage index {stage.index}",
                    )
                )
        part_procs = hosted.chain_procs[1:-1]
        if procs_available >= parts and len(set(part_procs)) != parts:
            violations.append(
                InvariantViolation(
                    "partitions",
                    query_id,
                    f"partitions share processors {sorted(part_procs)} "
                    f"despite {procs_available} being available",
                )
            )
    return violations


def check_sharing(entity: "Entity") -> list[InvariantViolation]:
    """Shared-computation layout consistency for one entity.

    For every shared group: at least two members, each hosted at this
    entity, tagged with the group id, holding exactly its tap fragment,
    with a tap processor assigned; the shared fragment's member list
    matches; and — semantically — the shared prefix fingerprints
    concatenated with each member's tap-suffix fingerprints must equal
    the member's own canonical fingerprint sequence, so the rewrite is
    provably evaluating the same query.  Conversely every hosted query
    tagged with a group id must appear in exactly that group.
    """
    violations: list[InvariantViolation] = []

    def bad(subject: str, detail: str) -> None:
        violations.append(InvariantViolation("sharing", subject, detail))

    seen_members: dict[str, str] = {}
    for gid, deployment in sorted(entity.shared.items()):
        group = deployment.group
        if gid != group.group_id:
            bad(gid, f"deployment key differs from group id {group.group_id}")
        if len(group.members) < 2:
            bad(gid, f"group has {len(group.members)} member(s), needs >= 2")
        if tuple(group.shared.members) != tuple(group.members):
            bad(
                gid,
                "shared fragment member list "
                f"{list(group.shared.members)} != group members "
                f"{list(group.members)}",
            )
        prefix_fps = tuple(
            op.fingerprint() for op in group.shared.operators
        )
        for qid in group.members:
            prev = seen_members.setdefault(qid, gid)
            if prev != gid:
                bad(qid, f"member of two groups: {prev} and {gid}")
            hosted = entity.hosted.get(qid)
            if hosted is None:
                bad(gid, f"member {qid} is not hosted at {entity.entity_id}")
                continue
            if hosted.shared_group != gid:
                bad(
                    qid,
                    f"hosted query tagged {hosted.shared_group}, group "
                    f"says {gid}",
                )
            tap = group.taps.get(qid)
            if tap is None:
                bad(gid, f"member {qid} has no tap fragment")
                continue
            if qid not in deployment.tap_procs:
                bad(gid, f"member {qid} has no tap processor assigned")
            if hosted.fragments != [tap]:
                bad(
                    qid,
                    "member's fragments are not exactly its tap fragment",
                )
            suffix_fps = tuple(
                op.fingerprint() for op in tap.operators[1:]
            )
            if prefix_fps + suffix_fps != hosted.spec.operator_fingerprints():
                bad(
                    qid,
                    "shared prefix + tap suffix fingerprints do not "
                    "reconstruct the member's canonical pipeline",
                )
    for query_id, hosted in sorted(entity.hosted.items()):
        gid = hosted.shared_group
        if gid is None:
            continue
        deployment = entity.shared.get(gid)
        if deployment is None:
            bad(query_id, f"tagged with unknown group {gid}")
        elif query_id not in deployment.group.members:
            bad(query_id, f"tagged with group {gid} but not a member of it")
    return violations


def check_wiring(
    entity: "Entity", dataflow: "LiveDataflow"
) -> list[InvariantViolation]:
    """Live tables ≡ derivation of the hosting model, for one entity.

    Compares each of the entity's live processors' ``fragments`` /
    ``downstream`` / ``head_routes`` with a fresh
    :func:`~repro.core.wiring.derive_wiring` of the current model.
    """
    wiring = derive_wiring(entity)
    violations: list[InvariantViolation] = []
    for proc_id in sorted(entity.processors):
        task = dataflow.processors[(entity.entity_id, proc_id)]
        for table, live, derived in (
            ("fragments", task.fragments, wiring.fragments[proc_id]),
            ("downstream", task.downstream, wiring.downstream[proc_id]),
            ("head_routes", task.head_routes, wiring.head_routes),
        ):
            if dict(live) != derived:
                stale = [
                    key
                    for key in sorted(dict.fromkeys([*live, *derived]))
                    if live.get(key) != derived.get(key)
                ]
                violations.append(
                    InvariantViolation(
                        "wiring",
                        proc_id,
                        f"{table} table differs from the derivation of "
                        f"the hosting model at {stale}",
                    )
                )
    return violations


def check_allocation_balance(
    graph: "QueryGraph",
    assignment: dict[str, str],
    parts: int,
    *,
    threshold: float,
) -> list[InvariantViolation]:
    """§3.2.2 partition balance: max part load / ideal <= ``threshold``."""
    imbalance = graph.imbalance(assignment, parts)
    if imbalance > threshold:
        return [
            InvariantViolation(
                "balance",
                "assignment",
                f"imbalance {imbalance:.3f} exceeds bound {threshold:.3f}",
            )
        ]
    return []


def _check_hosting(
    system: "FederatedSystem",
    trees: dict[str, DisseminationTree],
    exclude: frozenset[str],
) -> list[InvariantViolation]:
    """Assignment ↔ hosted ↔ tree-membership agreement."""
    violations: list[InvariantViolation] = []
    assignment = (
        dict(system.allocation_result.assignment)
        if system.allocation_result is not None
        else {}
    )
    hosted_at = {
        query_id: entity_id
        for entity_id, entity in sorted(system.entities.items())
        if entity_id not in exclude
        for query_id in entity.hosted
    }
    for query_id, entity_id in sorted(hosted_at.items()):
        if assignment.get(query_id) != entity_id:
            violations.append(
                InvariantViolation(
                    "hosting",
                    query_id,
                    f"hosted at {entity_id} but assigned to "
                    f"{assignment.get(query_id)}",
                )
            )
    for query_id, entity_id in sorted(assignment.items()):
        if entity_id in exclude:
            continue
        if hosted_at.get(query_id) != entity_id:
            violations.append(
                InvariantViolation(
                    "hosting",
                    query_id,
                    f"assigned to {entity_id} but hosted at "
                    f"{hosted_at.get(query_id)}",
                )
            )
    for entity_id, entity in sorted(system.entities.items()):
        if entity_id in exclude:
            continue
        for stream_id, interests in sorted(
            entity.interests_by_stream().items()
        ):
            tree = trees.get(stream_id)
            if interests and tree is not None and not tree.contains(entity_id):
                violations.append(
                    InvariantViolation(
                        "hosting",
                        entity_id,
                        f"hosts queries on {stream_id} but is not in "
                        "its dissemination tree",
                    )
                )
    return violations


def audit_federation(
    system: "FederatedSystem",
    *,
    exclude: Iterable[str] = (),
    graph: "QueryGraph | None" = None,
    parts: int | None = None,
    balance_threshold: float = 2.0,
    dataflow: "LiveDataflow | None" = None,
) -> list[InvariantViolation]:
    """Run every structural check against a planned federation.

    Args:
        system: The planner (:class:`FederatedSystem`) to audit.
        dataflow: The live dataflow executing the plan, if any: its
            dissemination trees (which the migrator refreshes in place)
            are audited instead of the planner's own, and the ``wiring``
            check runs on every entity it executes.
        exclude: Entity ids to skip — crashed entities in a chaos run
            legitimately violate delegation/hosting until re-homed.
        graph: Optional query graph; with ``parts`` enables the
            balance check.
        parts: Partition count for the balance check.
        balance_threshold: Bound for the balance check.
    """
    exclude_set = frozenset(exclude)
    violations: list[InvariantViolation] = []
    violations.extend(check_coordinator_tree(system.portal.tree))
    if dataflow is not None:
        trees = dataflow.trees
    else:
        trees = {
            stream_id: runtime.tree
            for stream_id, runtime in sorted(system.dissemination.items())
        }
    for __, tree in sorted(trees.items()):
        violations.extend(
            violation
            for violation in check_dissemination_tree(tree)
            if not any(entity in violation.detail for entity in exclude_set)
        )
    for entity_id, entity in sorted(system.entities.items()):
        if entity_id not in exclude_set:
            violations.extend(check_delegation(entity))
            violations.extend(check_partitions(entity))
            violations.extend(check_sharing(entity))
            if dataflow is not None and entity_id in dataflow.gateways:
                violations.extend(check_wiring(entity, dataflow))
    violations.extend(_check_hosting(system, trees, exclude_set))
    if graph is not None and parts is not None and parts > 0:
        assignment = (
            dict(system.allocation_result.assignment)
            if system.allocation_result is not None
            else {}
        )
        part_of = {
            entity_id: part
            for part, entity_id in enumerate(sorted(system.entities))
        }
        current = {
            query_id: part_of[entity_id]
            for query_id, entity_id in sorted(assignment.items())
            if entity_id in part_of and query_id in graph.vertex_weights
        }
        violations.extend(
            check_allocation_balance(
                graph, current, parts, threshold=balance_threshold
            )
        )
    return violations


def selfcheck(
    *, seed: int = 0, entity_count: int = 6, query_count: int = 60
) -> list[InvariantViolation]:
    """Build the demo federation and audit it (``python -m repro check``)."""
    from repro.allocation.query_graph import build_query_graph
    from repro.core.system import build_demo_system

    system, queries = build_demo_system(
        seed=seed, entity_count=entity_count, query_count=query_count
    )
    graph = build_query_graph(queries, system.catalog)
    return audit_federation(
        system,
        graph=graph,
        parts=len(system.entities),
        balance_threshold=3.0,
    )


def run_sharing_smoke(
    *, seed: int = 0, duration: float = 2.0
) -> list[InvariantViolation]:
    """Run the sharing workload shared and unshared; audit and compare.

    A shared-execution sim run must form at least one shared group
    (otherwise the smoke exercises nothing), pass the ``sharing``
    structural audit, and deliver exactly the result-tuple set of an
    unshared run of the same seed — the multi-query rewrite must be
    invisible in results.
    """
    from dataclasses import replace as _replace

    from repro.core.system import FederatedSystem
    from repro.live.runtime import LiveDataflow
    from repro.workloads import sharing_workload

    catalog, config, queries = sharing_workload(seed)

    def run(shared: bool):
        system = FederatedSystem(
            catalog, _replace(config, shared_execution=shared)
        )
        system.submit(queries)
        observed: set[tuple[str, str, int]] = set()

        def wrap(handler):
            def wrapped(query_id, tup):
                observed.add((query_id, tup.stream_id, tup.seq))
                handler(query_id, tup)

            return wrapped

        for entity in system.entities.values():
            if entity.result_handler is not None:
                entity.result_handler = wrap(entity.result_handler)
        system.run(duration=duration)
        system.sim.run()
        return system, observed

    shared_system, shared_keys = run(True)
    __, unshared_keys = run(False)
    violations = audit_federation(shared_system)
    groups = sum(
        len(entity.shared) for entity in shared_system.entities.values()
    )
    if groups == 0:
        violations.append(
            InvariantViolation(
                "sharing-smoke",
                "federation",
                "the overlap workload formed no shared group",
            )
        )
    if not shared_keys:
        violations.append(
            InvariantViolation(
                "sharing-smoke",
                "federation",
                "the shared smoke run delivered zero results",
            )
        )
    if shared_keys != unshared_keys:
        violations.append(
            InvariantViolation(
                "sharing-smoke",
                "federation",
                f"shared run delivered {len(shared_keys)} result keys, "
                f"unshared {len(unshared_keys)} — sets differ",
            )
        )
    return violations


def run_partition_smoke(
    *, seed: int = 0, duration: float = 1.2
) -> list[InvariantViolation]:
    """Run the partition workload adaptively and audit after rebalances.

    The skew threshold is set low enough that the Zipf-skewed tape
    triggers at least one skew rebalance during the run — the audit
    then proves the close → drain → rebalance → open swap left every
    partitioned deployment structurally intact (fragment layout, router
    spec, §4.1 processor spread).  Zero rebalances is itself a
    violation: a smoke that never exercises the trigger proves nothing.
    """
    from repro.live import (
        Adaptation,
        AdaptationSettings,
        LiveRuntime,
        LiveSettings,
    )
    from repro.workloads import partition_workload

    catalog, config, queries = partition_workload(seed)
    runtime = LiveRuntime(
        catalog,
        config,
        LiveSettings(duration=duration, batch_size=4),
        services=[
            Adaptation(
                AdaptationSettings(period=0.4, partition_skew_threshold=1.2)
            )
        ],
    )
    runtime.submit(queries)
    report = runtime.run()
    violations = audit_federation(
        runtime.planner, dataflow=runtime.dataflow
    )
    if report.adaptation.partition_rebalances == 0:
        violations.append(
            InvariantViolation(
                "partition-smoke",
                "federation",
                "the skewed smoke run triggered no partition rebalance",
            )
        )
    if not runtime.results:
        violations.append(
            InvariantViolation(
                "partition-smoke",
                "federation",
                "the partition smoke run delivered zero results",
            )
        )
    return violations


def run_control_smoke(
    *, seed: int = 7, duration: float = 2.0
) -> list[InvariantViolation]:
    """Run a short live churn under the control plane and audit it.

    Every scripted lifecycle event must be accounted for (each arrival
    admitted, deferred-then-admitted, rejected, or still queued; each
    departure honoured), the post-churn federation must pass the full
    structural audit, and the run must deliver results for more than
    one tenant — a churn smoke that admits nothing proves nothing.
    """
    from repro.control import Control
    from repro.live import Adaptation, LiveRuntime, LiveSettings
    from repro.workloads import churn_workload

    catalog, config, queries, events = churn_workload(
        seed=seed,
        duration=duration,
        churn_per_minute=240.0,
        quota_rate=200.0,
    )
    runtime = LiveRuntime(
        catalog,
        config,
        LiveSettings(duration=duration),
        services=[Adaptation(), Control(events=events)],
    )
    runtime.submit(queries)
    report = runtime.run()
    violations = audit_federation(
        runtime.planner, dataflow=runtime.dataflow
    )
    control = report.control
    registers = sum(1 for e in events if e.action == "register")
    if control.arrivals != registers:
        violations.append(
            InvariantViolation(
                "control-smoke",
                "federation",
                f"{registers} scripted arrivals but the plane saw "
                f"{control.arrivals}",
            )
        )
    settled = (
        control.registered + control.rejected + control.stranded_in_queue
    )
    if settled != control.arrivals:
        violations.append(
            InvariantViolation(
                "control-smoke",
                "federation",
                f"{control.arrivals} arrivals but only {settled} "
                "admitted + rejected + still queued",
            )
        )
    if control.departures != len(events) - registers:
        violations.append(
            InvariantViolation(
                "control-smoke",
                "federation",
                f"{len(events) - registers} scripted departures but "
                f"the plane saw {control.departures}",
            )
        )
    if control.registered == 0:
        violations.append(
            InvariantViolation(
                "control-smoke",
                "federation",
                "the churn smoke admitted no arrivals",
            )
        )
    if len(control.delivered_by_tenant) < 2:
        violations.append(
            InvariantViolation(
                "control-smoke",
                "federation",
                "fewer than two tenants delivered results",
            )
        )
    return violations
