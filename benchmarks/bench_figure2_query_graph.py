"""E1 — Figure 2: the query-graph allocation example, reproduced exactly.

Paper artifact: the worked example of §3.2.2.  Two balanced plans over
five queries; plan (a) = {Q3,Q4 | Q1,Q2,Q5} duplicates 8 bytes/second of
stream data, plan (b) = {Q3,Q5 | Q1,Q2,Q4} only 3.  The partitioner must
discover plan (b).
"""

from __future__ import annotations

import itertools

from repro.allocation.partitioning import MultilevelPartitioner
from repro.allocation.query_graph import (
    FIGURE2_PLAN_A,
    FIGURE2_PLAN_B,
    figure2_graph,
)
from repro.bench.reporting import Table, emit, print_header


def exhaustive_optimum(graph):
    """Best balanced bipartition by brute force (ground truth)."""
    vertices = graph.vertices()
    best = None
    for mask in itertools.product((0, 1), repeat=len(vertices)):
        if len(set(mask)) < 2:
            continue
        assignment = dict(zip(vertices, mask))
        if graph.imbalance(assignment, 2) > 1.0 + 1e-9:
            continue
        cut = graph.edge_cut(assignment)
        if best is None or cut < best:
            best = cut
    return best


def test_figure2_reproduction():
    graph = figure2_graph()

    result = MultilevelPartitioner(
        max_imbalance=1.01, coarsen_limit=2
    ).partition(graph, 2)

    print_header(
        "E1 / Figure 2 — query graph: duplicate traffic of candidate plans"
    )
    table = Table(
        ["plan", "partition", "balanced", "duplicate bytes/s", "paper says"]
    )
    table.add_row(
        [
            "(a) Q3+Q4",
            "{Q3,Q4} | {Q1,Q2,Q5}",
            graph.imbalance(FIGURE2_PLAN_A, 2) <= 1.0 + 1e-9,
            graph.edge_cut(FIGURE2_PLAN_A),
            8.0,
        ]
    )
    table.add_row(
        [
            "(b) Q3+Q5",
            "{Q3,Q5} | {Q1,Q2,Q4}",
            graph.imbalance(FIGURE2_PLAN_B, 2) <= 1.0 + 1e-9,
            graph.edge_cut(FIGURE2_PLAN_B),
            3.0,
        ]
    )
    table.add_row(
        [
            "partitioner",
            str(sorted(v for v, p in result.assignment.items() if p == result.assignment["Q3"])),
            result.imbalance <= 1.0 + 1e-9,
            result.cut,
            "3.0 (optimal)",
        ]
    )
    table.show()

    optimum = exhaustive_optimum(graph)
    emit(f"exhaustive optimum over balanced bipartitions: {optimum}")

    assert graph.edge_cut(FIGURE2_PLAN_A) == 8.0
    assert graph.edge_cut(FIGURE2_PLAN_B) == 3.0
    assert result.cut == optimum == 3.0
