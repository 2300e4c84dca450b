"""E2 — Table 1: the degree-of-cooperation taxonomy, quantified.

Paper artifact: Table 1 categorises systems by cooperation in the two
services (stream transfer x query processing) and §2 argues "with a
tighter cooperation, higher efficiency can be achieved".  We run the
same workload through each quadrant of the taxonomy and report the
efficiency metrics each axis is supposed to improve:

* cooperated stream transfer -> lower source egress (scalability);
* finer-grained load sharing -> lower PR_max / better balance.
"""

from __future__ import annotations

from repro.bench.reporting import Table, print_header
from repro.core.system import FederatedSystem, SystemConfig
from repro.query.generator import WorkloadConfig, generate_workload
from repro.streams.catalog import stock_catalog

ENTITIES = 12
QUERIES = 96
DURATION = 4.0


def run_quadrant(*, dissemination, allocation, placement, limit):
    catalog = stock_catalog(exchanges=2, rate=80.0)
    config = SystemConfig(
        entity_count=ENTITIES,
        processors_per_entity=3,
        seed=11,
        dissemination=dissemination,
        early_filtering=True,
        allocation=allocation,
        placement=placement,
        distribution_limit=limit,
    )
    system = FederatedSystem(catalog, config)
    workload = generate_workload(
        catalog,
        WorkloadConfig(query_count=QUERIES, join_fraction=0.0),
        seed=11,
    )
    system.submit(workload.queries)
    return system.run(DURATION)


QUADRANTS = [
    # (transfer coop, processing coop, config)
    (
        "non-cooperated",
        "isolated (single-site engines)",
        dict(dissemination="direct", allocation="random", placement="single", limit=1),
    ),
    (
        "non-cooperated",
        "query-level sharing [9,11,6]",
        dict(dissemination="direct", allocation="load", placement="single", limit=1),
    ),
    (
        "cooperated [13]",
        "query-level sharing (Sect. 3)",
        dict(dissemination="closest", allocation="partition", placement="single", limit=1),
    ),
    (
        "cooperated",
        "operator-level sharing (Sect. 4)",
        dict(dissemination="closest", allocation="partition", placement="pr", limit=2),
    ),
]


def test_table1_cooperation_matrix():
    rows = []

    def run_all():
        rows.clear()
        for transfer, processing, cfg in QUADRANTS:
            report = run_quadrant(**cfg)
            rows.append((transfer, processing, report))
        return rows

    run_all()

    print_header("E2 / Table 1 — cooperation taxonomy, measured")
    table = Table(
        [
            "stream transfer",
            "query processing",
            "src egress kB",
            "PR_max",
            "mean lat ms",
            "answered",
        ]
    )
    for transfer, processing, report in rows:
        table.add_row(
            [
                transfer,
                processing,
                report.source_egress_bytes / 1e3,
                report.pr_max,
                report.mean_result_latency * 1e3,
                f"{report.queries_answered}/{report.queries_total}",
            ]
        )
    table.show()

    non_coop = rows[0][2]
    coop_query = rows[2][2]
    coop_op = rows[3][2]
    # cooperated transfer bounds the source's egress
    assert coop_query.source_egress_bytes < non_coop.source_egress_bytes
    # finer-grained sharing does not lose queries and keeps PR in check
    assert coop_op.queries_answered >= non_coop.queries_answered * 0.8
