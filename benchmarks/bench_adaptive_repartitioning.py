"""E7 — adaptive repartitioning: scratch vs cut-only vs hybrid.

Paper claim (§3.2.2): from-scratch repartitioning gives "a relatively
optimal partitioning but with a long decision making time and a large
number of query movements"; cutting vertices off overloaded partitions
is fast and cheap but "communication efficiency might be
unsatisfactory"; "a desirable approach should be able to achieve a
trade-off between these two extremes".

The workload evolves over 30 epochs — query load drift plus arrivals
and departures — and each strategy adapts from its *own* previous
assignment, accumulating migrations and decision time.
"""

from __future__ import annotations

import random

from repro.allocation.query_graph import build_query_graph
from repro.allocation.repartition import (
    CutRepartitioner,
    HybridRepartitioner,
    ScratchRepartitioner,
)
from repro.bench.reporting import Table, emit, print_header
from repro.query.generator import WorkloadConfig, generate_workload
from repro.streams.catalog import stock_catalog

EPOCHS = 30
PARTS = 8
QUERIES = 400


def evolving_graphs(seed=61):
    """Yield a graph per epoch: weight drift + arrivals/departures."""
    catalog = stock_catalog(exchanges=2, rate=100.0)
    workload = generate_workload(
        catalog,
        WorkloadConfig(query_count=QUERIES + EPOCHS * 4, hot_fraction=0.8),
        seed=seed,
    )
    queries = workload.queries
    active = list(queries[:QUERIES])
    pending = list(queries[QUERIES:])
    rng = random.Random(seed)
    drift = {q.query_id: 1.0 for q in queries}

    for __ in range(EPOCHS):
        graph = build_query_graph(active, catalog)
        for vertex in graph.vertex_weights:
            drift[vertex] *= rng.lognormvariate(0.0, 0.25)
            graph.vertex_weights[vertex] *= drift[vertex]
        yield graph
        # churn: 4 arrivals, 4 departures
        for __ in range(4):
            if pending:
                active.append(pending.pop())
        for __ in range(4):
            active.pop(rng.randrange(len(active)))


def test_repartitioning_tradeoff():
    stats = {}

    def run():
        strategies = {
            "scratch": ScratchRepartitioner(seed=3),
            "cut-only": CutRepartitioner(),
            "hybrid": HybridRepartitioner(),
        }
        for name in strategies:
            stats[name] = {
                "cut": 0.0,
                "imbalance": 0.0,
                "migrations": 0,
                "decision_ms": 0.0,
            }
        assignments = {name: {} for name in strategies}
        epochs = 0
        for graph in evolving_graphs():
            epochs += 1
            for name, strategy in strategies.items():
                out = strategy.repartition(graph, assignments[name], PARTS)
                assignments[name] = out.assignment
                stats[name]["cut"] += out.cut
                stats[name]["imbalance"] += out.imbalance
                stats[name]["migrations"] += out.migrations
                stats[name]["decision_ms"] += out.decision_seconds * 1e3
        for name in strategies:
            stats[name]["cut"] /= epochs
            stats[name]["imbalance"] /= epochs
        return stats

    run()

    print_header(
        f"E7 — adaptive repartitioning over {EPOCHS} epochs "
        f"({QUERIES} queries, {PARTS} entities)"
    )
    table = Table(
        [
            "strategy",
            "mean cut kB/s",
            "mean imbalance",
            "total migrations",
            "total decision ms",
        ]
    )
    for name in ("scratch", "cut-only", "hybrid"):
        s = stats[name]
        table.add_row(
            [
                name,
                s["cut"] / 1e3,
                s["imbalance"],
                s["migrations"],
                s["decision_ms"],
            ]
        )
    table.show()
    emit(
        "paper expectation: scratch = best cut / most movement+time, "
        "cut-only = cheapest / worst cut, hybrid = in between"
    )

    # the trade-off shape
    assert stats["hybrid"]["cut"] < stats["cut-only"]["cut"]
    assert stats["hybrid"]["migrations"] < stats["scratch"]["migrations"]
    assert stats["cut-only"]["decision_ms"] < stats["scratch"]["decision_ms"]
    # all keep the system balanced
    for name in stats:
        assert stats[name]["imbalance"] < 1.35
