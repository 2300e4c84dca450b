"""Print the simulator's run report over the wiring-relevant settings.

A refactor of the dataflow interpreters must not move a byte of a
seeded simulated run.  Run this on two checkouts and diff the output::

    PYTHONPATH=src python benchmarks/sim_identity.py > /tmp/here.txt

64 queries (``join_fraction=0.4``, ``aggregate_fraction=0.3``), seed 3,
8 entities x 4 processors, 20 simulated seconds, at
``partition_parallelism`` in {1, 2} x ``shared_execution`` x
``transform_at_ancestors`` — the generated workload forms no shared
groups, so E20's sharing workload (overlap 0.8, private projections)
follows at ``shared_execution`` x ``transform_at_ancestors``.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product

from repro.core.system import FederatedSystem, SystemConfig
from repro.query.generator import WorkloadConfig, generate_workload
from repro.streams.catalog import stock_catalog
from repro.workloads import sharing_workload


def main() -> None:
    """One ``settings -> repr(report)`` line per combination."""
    for parallelism, shared, transform in product(
        (1, 2), (False, True), (False, True)
    ):
        catalog = stock_catalog()
        workload = generate_workload(
            catalog,
            WorkloadConfig(
                query_count=64, join_fraction=0.4, aggregate_fraction=0.3
            ),
            seed=3,
        )
        system = FederatedSystem(
            catalog,
            SystemConfig(
                entity_count=8,
                processors_per_entity=4,
                seed=3,
                partition_parallelism=parallelism,
                shared_execution=shared,
                transform_at_ancestors=transform,
            ),
        )
        system.submit(workload.queries)
        print(
            f"parallelism={parallelism} shared={shared} "
            f"transform={transform}: {system.run(20.0)!r}"
        )
    for shared, transform in product((False, True), (False, True)):
        catalog, config, queries = sharing_workload(3, overlap=0.8)
        system = FederatedSystem(
            catalog,
            replace(
                config,
                shared_execution=shared,
                transform_at_ancestors=transform,
            ),
        )
        system.submit(queries)
        print(
            f"sharing shared={shared} transform={transform}: "
            f"{system.run(20.0)!r}"
        )


if __name__ == "__main__":
    main()
