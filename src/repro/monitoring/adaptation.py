"""Accounting for the live adaptation loop (§3.2.2 at runtime).

The paper argues that repartitioning strategies must be judged on three
axes at once: partition quality, decision-making time, and the number of
query movements.  :class:`AdaptationReport` is the one record of all
three: the live :class:`~repro.live.adaptation.AdaptationController`
``record_*``s into it during the run — one entry per control round,
plus migration-protocol counters — and the
:class:`~repro.live.adaptation.Adaptation` service attaches it, as it
is, to the run's :class:`~repro.live.metrics.LiveReport`.

All times are labelled: *virtual* seconds come from the run's
:class:`~repro.live.entity_task.LiveClock`; *wall* seconds (decision and
pause durations) are host-clock measurements, because decision time is
precisely the axis the paper wants measured in real cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.sharing import SharingStats


@dataclass(frozen=True)
class AdaptationRound:
    """One control-loop round, whether or not it triggered moves.

    Attributes:
        virtual_time: Clock reading when the round sampled load.
        imbalance_before: Observed max/ideal part-load ratio at sampling.
        imbalance_after: Planner's predicted ratio after the round (equal
            to ``imbalance_before`` when the round did not adapt).
        migrations: Net queries moved by this round.
        decision_seconds: Wall seconds the repartitioner spent deciding.
        pause_wall_seconds: Wall seconds sources were gated for the
            migration (0.0 when the round did not adapt).
    """

    virtual_time: float
    imbalance_before: float
    imbalance_after: float
    migrations: int
    decision_seconds: float
    pause_wall_seconds: float


@dataclass
class AdaptationReport:
    """Adaptation metrics of one adaptive live run.

    Attributes:
        strategy: Repartitioner name (``scratch`` / ``cut`` / ``hybrid``).
        rounds: Control-loop rounds that sampled load.
        adaptations: Rounds that actually migrated at least one query.
        queries_migrated: Net query moves summed over all rounds.
        fragments_migrated: Stateful fragments transferred with those
            queries (operator windows move intact, never reset).
        gross_moves: Individual vertex moves the strategies performed
            (≥ ``queries_migrated``; the gap is wasted churn).
        tree_attaches / tree_detaches: Dissemination-tree membership
            changes the run's lifecycle edits (migrations, arrivals,
            departures) made when they refreshed the trees.
        decision_seconds: Total wall seconds spent inside the
            repartitioner — the paper's decision-making-time axis.
        pause_wall_seconds: Total wall seconds sources were gated while
            migrations drained and transferred state.
        history: Per-round records, in round order.
        audits: Post-migration structural-invariant audits run.
        audit_violations: Violations those audits found (must stay 0).
        partition_rebalances: Skew-triggered intra-operator partition
            rebalances (hot-key overrides installed under quiescence).
        reshares: Entities whose shared-computation groups were
            recomputed after a migration round.
        aborted_migrations: Migration rounds that raised mid-protocol
            and were repaired back to a consistent placement (feeds
            resumed, sharing re-attached) instead of crashing the run.
        sharing: Latest realized sharing snapshot (shared fragments,
            member counts, estimated CPU saved).
    """

    strategy: str
    rounds: int = 0
    adaptations: int = 0
    queries_migrated: int = 0
    fragments_migrated: int = 0
    gross_moves: int = 0
    tree_attaches: int = 0
    tree_detaches: int = 0
    decision_seconds: float = 0.0
    pause_wall_seconds: float = 0.0
    history: list[AdaptationRound] = field(default_factory=list)
    audits: int = 0
    audit_violations: int = 0
    partition_rebalances: int = 0
    reshares: int = 0
    aborted_migrations: int = 0
    sharing: SharingStats = SharingStats()

    @property
    def peak_imbalance(self) -> float:
        """Worst observed max/ideal load ratio at sampling."""
        return max((r.imbalance_before for r in self.history), default=0.0)

    @property
    def final_imbalance(self) -> float:
        """Ratio observed by the last round."""
        return self.history[-1].imbalance_before if self.history else 0.0

    # ------------------------------------------------------------------
    def record_round(self, round_: AdaptationRound) -> None:
        """Account one completed control round."""
        self.rounds += 1
        self.history.append(round_)
        self.decision_seconds += round_.decision_seconds
        if round_.migrations > 0:
            self.adaptations += 1
            self.queries_migrated += round_.migrations
            self.pause_wall_seconds += round_.pause_wall_seconds

    def record_transfer(self, fragments: int) -> None:
        """Account the fragments (with state) moved for one query."""
        self.fragments_migrated += fragments

    def record_tree_update(self, attaches: int, detaches: int) -> None:
        """Account dissemination-tree surgery by lifecycle edits."""
        self.tree_attaches += attaches
        self.tree_detaches += detaches

    def record_audit(self, violations: int) -> None:
        """Account one post-migration structural-invariant audit."""
        self.audits += 1
        self.audit_violations += violations

    def record_rebalance(self, rebalanced: int) -> None:
        """Account skew-triggered partition rebalances in one round."""
        self.partition_rebalances += rebalanced

    def record_reshare(self, entities: int) -> None:
        """Account entities whose sharing groups were recomputed after
        a migration round."""
        self.reshares += entities

    def record_abort(self) -> None:
        """Account one migration round that failed mid-protocol and was
        rolled back to a consistent placement before resuming feeds."""
        self.aborted_migrations += 1

    def record_sharing(self, stats: SharingStats) -> None:
        """Snapshot the federation's currently realized sharing."""
        self.sharing = stats

    # ------------------------------------------------------------------
    def summary_lines(self) -> list[str]:
        """Human-readable digest (appended to the live run summary)."""
        return [
            f"adaptation[{self.strategy}]: {self.rounds} rounds, "
            f"{self.adaptations} adapted, {self.queries_migrated} queries "
            f"({self.fragments_migrated} fragments) migrated",
            f"adaptation cost: decisions "
            f"{self.decision_seconds * 1000:.1f} ms, pauses "
            f"{self.pause_wall_seconds * 1000:.1f} ms, tree updates "
            f"+{self.tree_attaches}/-{self.tree_detaches}",
            f"imbalance: peak {self.peak_imbalance:.2f}, "
            f"final {self.final_imbalance:.2f}",
            f"invariant audits: {self.audits} run, "
            f"{self.audit_violations} violations",
            f"partition rebalances: {self.partition_rebalances}, "
            f"aborted migrations: {self.aborted_migrations}",
            f"sharing: {self.sharing.summary()} "
            f"(reshared entities: {self.reshares})",
        ]
