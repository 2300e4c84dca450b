"""Named end-to-end scenarios: catalog + workload in one object."""

from __future__ import annotations

from dataclasses import dataclass

from repro.query.generator import QueryWorkload, WorkloadConfig, generate_workload
from repro.streams.catalog import StreamCatalog, network_catalog, stock_catalog


@dataclass(frozen=True)
class Scenario:
    """A reproducible workload bundle."""

    name: str
    catalog: StreamCatalog
    workload: QueryWorkload

    @property
    def queries(self):
        """The scenario's query specs."""
        return self.workload.queries


def financial_scenario(
    *,
    exchanges: int = 2,
    query_count: int = 200,
    rate: float = 200.0,
    hot_fraction: float = 0.7,
    join_fraction: float = 0.1,
    zipf_s: float = 1.1,
    seed: int = 0,
) -> Scenario:
    """Stock-market monitoring: Zipf-hot symbols, clustered interests.

    ``zipf_s`` steepens the symbol popularity curve — the skew knob the
    partitioned-operator experiments turn up to concentrate a stage's
    traffic onto a few hot keys.
    """
    catalog = stock_catalog(exchanges=exchanges, rate=rate, zipf_s=zipf_s)
    workload = generate_workload(
        catalog,
        WorkloadConfig(
            query_count=query_count,
            hot_fraction=hot_fraction,
            join_fraction=join_fraction,
        ),
        seed=seed,
    )
    return Scenario(name="financial", catalog=catalog, workload=workload)


def network_monitoring_scenario(
    *,
    monitors: int = 4,
    query_count: int = 200,
    rate: float = 500.0,
    seed: int = 0,
) -> Scenario:
    """Network management: per-prefix flow monitoring queries."""
    catalog = network_catalog(monitors=monitors, rate=rate)
    workload = generate_workload(
        catalog,
        WorkloadConfig(
            query_count=query_count,
            hot_fraction=0.6,
            join_fraction=0.05,
            aggregate_fraction=0.5,
        ),
        seed=seed,
    )
    return Scenario(name="network", catalog=catalog, workload=workload)


def parity_workload(seed: int = 0, *, rate: float = 40.0):
    """The cross-runtime parity workload: stateless selections only.

    The differential matrix's ``plain`` plan and the distributed smoke
    audit: selection results carry no timestamps, so all three
    execution modes must deliver the *identical* result-tuple set on
    the same seed.  Returns ``(catalog, config, queries)``.
    """
    from repro.core.system import SystemConfig
    from repro.interest.predicates import StreamInterest
    from repro.query.spec import QuerySpec

    catalog = stock_catalog(exchanges=2, rate=rate)
    config = SystemConfig(entity_count=4, processors_per_entity=2, seed=seed)
    ranges = [
        (50.0, 400.0),
        (200.0, 700.0),
        (600.0, 990.0),
        (1.0, 150.0),
        (300.0, 900.0),
        (100.0, 500.0),
    ]
    queries = [
        QuerySpec(
            query_id=f"q{i}",
            interests=(
                StreamInterest.on(
                    f"exchange-{i % 2}.trades", price=(lo, hi)
                ),
            ),
            client_x=0.1 * i,
            client_y=0.9 - 0.1 * i,
        )
        for i, (lo, hi) in enumerate(ranges)
    ]
    return catalog, config, queries


def sharing_workload(
    seed: int = 0,
    *,
    overlap: float = 0.8,
    query_count: int = 10,
    rate: float = 40.0,
    filter_cost_multiplier: float = 1.0,
):
    """The shared-computation workload: controlled fingerprint overlap.

    ``overlap`` is the fraction of queries carrying an *identical*
    leading filter on the hot stream — under ``shared_execution`` those
    colocated queries collapse into one shared prefix fragment, while
    their suffixes (rotating projections) stay private taps.  The
    remaining queries subscribe to disjoint ranges on the second stream
    and never share.  Selection/projection results are timestamp-free,
    so shared and unshared runs (and all three runtimes) must deliver
    the identical result-tuple set per seed.  Returns ``(catalog,
    config, queries)`` with ``config.shared_execution`` enabled.
    """
    from repro.core.system import SystemConfig
    from repro.interest.predicates import StreamInterest
    from repro.query.spec import QuerySpec

    catalog = stock_catalog(exchanges=2, rate=rate)
    config = SystemConfig(
        entity_count=2,
        processors_per_entity=2,
        seed=seed,
        shared_execution=True,
    )
    overlapping = max(0, min(query_count, round(query_count * overlap)))
    suffixes = (None, ("price",), ("price", "symbol"))
    queries = [
        QuerySpec(
            query_id=f"ov{i}",
            interests=(
                StreamInterest.on(
                    "exchange-0.trades", price=(100.0, 600.0)
                ),
            ),
            project=suffixes[i % len(suffixes)],
            cost_multiplier=filter_cost_multiplier,
            client_x=0.1 + 0.05 * i,
            client_y=0.9 - 0.05 * i,
        )
        for i in range(overlapping)
    ] + [
        QuerySpec(
            query_id=f"lone{i}",
            interests=(
                StreamInterest.on(
                    "exchange-1.trades",
                    price=(
                        1.0 + 90.0 * i,
                        80.0 + 90.0 * i,
                    ),
                ),
            ),
            cost_multiplier=filter_cost_multiplier,
            client_x=0.8,
            client_y=0.2 + 0.05 * i,
        )
        for i in range(query_count - overlapping)
    ]
    return catalog, config, queries


def churn_workload(
    seed: int = 0,
    *,
    rate: float = 40.0,
    tenants: int = 3,
    base_queries: int = 4,
    churn_per_minute: float = 120.0,
    duration: float = 5.0,
    warmup: float = 0.5,
    queue_limit: int = 32,
    imbalance_threshold: float = 2.0,
    quota_rate: float | None = None,
    spike_tenant: str | None = None,
    spike_factor: float = 1.0,
):
    """The multi-tenant churn workload: scripted arrivals/departures.

    Generates a deterministic churn script of query registrations and
    teardowns spread over ``[warmup, duration)`` at ``churn_per_minute``
    lifecycle events per virtual minute, round-robined across
    ``tenants`` tenants.  Every registered query is torn down a short,
    seed-derived lifetime later (teardowns past ``duration`` are
    dropped — those queries simply outlive the run).  ``spike_tenant``
    optionally multiplies one tenant's stream rate by ``spike_factor``
    — the E21 fairness scenario where quotas must keep the other
    tenants' delivered throughput within the gate.  Returns
    ``(catalog, config, queries, events)``.
    """
    import random

    from repro.control.events import ControlEvent
    from repro.core.system import SystemConfig
    from repro.interest.predicates import StreamInterest
    from repro.query.spec import QuerySpec
    from repro.streams.schema import Attribute, StreamSchema

    names = [f"tenant-{chr(ord('a') + i)}" for i in range(tenants)]
    catalog = StreamCatalog()
    for i in range(tenants):
        stream_rate = rate * (
            spike_factor
            if spike_tenant is not None and names[i] == spike_tenant
            else 1.0
        )
        catalog.register(
            StreamSchema(
                stream_id=f"exchange-{i}.trades",
                attributes=(
                    Attribute("symbol", 0, 499, "zipf", 1.1),
                    Attribute("price", 1.0, 1000.0),
                    Attribute("volume", 1.0, 10_000.0),
                ),
                tuple_size=48.0,
                rate=stream_rate,
            )
        )
    config = SystemConfig(
        entity_count=4,
        processors_per_entity=2,
        seed=seed,
        admission_queue_limit=queue_limit,
        admission_imbalance_threshold=imbalance_threshold,
        tenant_quota_rate=quota_rate,
        tenant_weights=tuple((name, 1.0) for name in names)
        if quota_rate is not None
        else (),
    )
    rng = random.Random(seed)

    def spec(index: int, tenant_slot: int) -> QuerySpec:
        lo = 20.0 + 90.0 * ((index * 7) % 10)
        return QuerySpec(
            query_id=f"churn{index}",
            interests=(
                StreamInterest.on(
                    f"exchange-{tenant_slot}.trades",
                    price=(lo, lo + 250.0),
                ),
            ),
            tenant=names[tenant_slot],
            client_x=0.05 + 0.09 * (index % 10),
            client_y=0.95 - 0.09 * (index % 10),
        )

    queries = [
        QuerySpec(
            query_id=f"base{i}",
            interests=(
                StreamInterest.on(
                    f"exchange-{i % tenants}.trades",
                    price=(50.0, 800.0),
                ),
            ),
            tenant=names[i % tenants],
            client_x=0.1 + 0.2 * i,
            client_y=0.9 - 0.2 * i,
        )
        for i in range(base_queries)
    ]
    # Each arrival later produces one teardown, so arrivals alone run
    # at half the requested lifecycle-event rate.  Lifetimes fit inside
    # the run (arrivals stop a `tail` before the end) so the script
    # really delivers churn_per_minute lifecycle events per minute.
    arrivals = max(1, round(churn_per_minute / 60.0 * duration / 2.0))
    tail = min(0.5, max(duration - warmup, 0.1) / 4.0)
    window = max(duration - warmup - tail, 0.1)
    events = []
    for i in range(arrivals):
        slot = i % tenants
        at = warmup + window * i / arrivals
        events.append(
            ControlEvent(at=at, action="register", spec=spec(i, slot))
        )
        leave = at + rng.uniform(0.3, 0.95) * tail
        events.append(
            ControlEvent(
                at=leave, action="teardown", query_id=f"churn{i}"
            )
        )
    events.sort(key=lambda e: (e.at, e.subject))
    return catalog, config, queries, events


def partition_workload(
    seed: int = 0,
    *,
    rate: float = 40.0,
    parallelism: int = 4,
    zipf_s: float = 1.3,
    agg_cost: float | None = None,
):
    """The partitioned-operator parity workload: grouped aggregates.

    Per-symbol grouped aggregates over a skewed (Zipf) stock tape are
    the partitionable stage whose results are runtime-independent: the
    aggregate watermark advances on ``created_at`` alone, so sim, live,
    distributed, and partitioned-live runs must deliver the identical
    result-tuple set per seed.  Selection queries ride along so the
    workload also exercises plain chains next to partitioned ones.
    ``agg_cost`` overrides the aggregates' nominal CPU seconds per
    tuple — the E19 benchmark raises it to make the partitioned stage
    CPU-bound.  Returns ``(catalog, config, queries)`` with
    ``config.partition_parallelism`` set to ``parallelism``.
    """
    from repro.core.system import SystemConfig
    from repro.interest.predicates import StreamInterest
    from repro.query.spec import AggregateSpec, QuerySpec

    catalog = stock_catalog(exchanges=2, rate=rate, zipf_s=zipf_s)
    config = SystemConfig(
        entity_count=4,
        processors_per_entity=max(2, parallelism),
        seed=seed,
        partition_parallelism=parallelism,
    )
    queries = [
        QuerySpec(
            query_id=f"agg{i}",
            interests=(
                StreamInterest.on(
                    f"exchange-{i % 2}.trades", price=(50.0, 900.0)
                ),
            ),
            aggregate=AggregateSpec(
                attribute="price",
                fn=("sum", "avg", "max")[i % 3],
                window=0.25,
                group_by="symbol",
                cost=agg_cost,
            ),
            client_x=0.15 * i,
            client_y=0.8 - 0.1 * i,
        )
        for i in range(4)
    ] + [
        QuerySpec(
            query_id=f"sel{i}",
            interests=(
                StreamInterest.on(
                    f"exchange-{i % 2}.trades", price=(lo, hi)
                ),
            ),
            client_x=0.2 + 0.1 * i,
            client_y=0.2 + 0.1 * i,
        )
        for i, (lo, hi) in enumerate([(100.0, 400.0), (500.0, 950.0)])
    ]
    return catalog, config, queries
