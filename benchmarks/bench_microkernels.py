"""E0 — micro-kernels: raw throughput of the core building blocks.

Not a paper artifact; these are the library's own performance
characteristics (per pytest-benchmark statistics), useful for spotting
regressions in the hot paths every experiment exercises:

* engine: filter chain throughput (tuples/second),
* window join probing,
* interest-overlap computation (query-graph edge weights),
* coordinator-tree query routing,
* event loop scheduling.
"""

from __future__ import annotations

import random
import time

from repro.bench.reporting import Table, emit, print_header, write_bench_json
from repro.coordination.routing import QueryRouter
from repro.coordination.tree import CoordinatorTree, Member
from repro.engine.operators import FilterOperator, WindowJoinOperator
from repro.engine.operators.mapop import MapOperator
from repro.engine.plan import QueryPlan
from repro.interest.compiled import compile_interest
from repro.interest.overlap import overlap_rate
from repro.interest.predicates import StreamInterest
from repro.simulation.simulator import Simulator
from repro.streams.catalog import stock_catalog
from repro.streams.source import StreamSource
from repro.streams.tuples import StreamTuple


def test_filter_chain_throughput(benchmark):
    """Push tuples through a three-filter pipeline fragment."""
    interest = StreamInterest.on("s", x=(25.0, 75.0))
    plan = QueryPlan(
        "q",
        ["s"],
        [FilterOperator(f"f{i}", interest) for i in range(3)],
    )
    fragment = plan.as_single_fragment()
    tuples = [
        StreamTuple("s", i, 0.0, {"x": (i * 7) % 100 * 1.0}, 64.0)
        for i in range(1000)
    ]

    def run():
        total = 0
        for tup in tuples:
            total += len(fragment.run(tup, 0.0))
        return total

    survivors = benchmark(run)
    assert 0 < survivors < 1000


def _dataplane_fragment():
    """A representative filter/map pipeline: selection, user-defined
    predicate map (the occasionally-``None`` map), tighter selection."""
    return QueryPlan(
        "q",
        ["s"],
        [
            FilterOperator("f0", StreamInterest.on("s", x=(25.0, 75.0))),
            MapOperator(
                "m0", lambda t: t if t.values["x"] < 70.0 else None
            ),
            FilterOperator("f1", StreamInterest.on("s", x=(30.0, 95.0))),
        ],
    ).as_single_fragment()


def _dataplane_tuples(count=5000):
    return [
        StreamTuple("s", i, 0.0, {"x": (i * 7) % 100 * 1.0}, 64.0)
        for i in range(count)
    ]


def _best_seconds(*fns, rounds=9):
    """Best-of-``rounds`` wall time of each ``fn()``, interleaved.

    Min filters scheduler noise better than mean for sub-millisecond
    kernels, and running the candidates round-robin (rather than all
    rounds of one, then all of the other) spreads any transient system
    load evenly across them — the ratios stay honest on busy hosts.
    """
    best = [float("inf")] * len(fns)
    for _ in range(rounds):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def test_batch_dataplane_speedup(benchmark):
    """One fragment fed singletons vs fed the whole batch.

    There is one kernel per operator, so this is not twin against twin:
    the denominator (``pipeline_per_tuple_tps``) is ``Fragment.run`` —
    ``run_batch([tup])``, the same kernels on batches of one, as the
    simulator drives them — and the numerator is one ``run_batch`` over
    all the tuples.  The ratio is what batching amortises: a stats
    update, a kernel call and an intermediate list per operator per
    *call*.  Both cuttings must produce the identical output.  Also
    measures the codegen'd interest kernel against the interpreted
    ``matches_values`` path, and writes the whole comparison to
    ``BENCH_dataplane.json``.
    """
    tuples = _dataplane_tuples()
    per_tuple_frag = _dataplane_fragment()
    batch_frag = _dataplane_fragment()

    def per_tuple():
        out = []
        for tup in tuples:
            out.extend(per_tuple_frag.run(tup, 0.0))
        return out

    def batched():
        return batch_frag.run_batch(tuples, 0.0)

    # the correctness contract: output is invariant to the cutting
    assert per_tuple() == batched()

    interest = StreamInterest.on(
        "s", price=(10.0, 600.0), volume=(100.0, 5000.0)
    )
    match = compile_interest(interest)
    probe_values = [
        {"price": float(p % 700), "volume": float((p * 13) % 6000)}
        for p in range(2000)
    ]
    assert [match(v) for v in probe_values] == [
        interest.matches_values(v) for v in probe_values
    ]

    metrics = {}

    def run():
        per_tuple_s, batch_s, interp_s, compiled_s = _best_seconds(
            per_tuple,
            batched,
            lambda: [interest.matches_values(v) for v in probe_values],
            lambda: [match(v) for v in probe_values],
        )
        metrics.update(
            tuples=len(tuples),
            survivors=len(batched()),
            pipeline_per_tuple_tps=len(tuples) / per_tuple_s,
            pipeline_batch_tps=len(tuples) / batch_s,
            pipeline_speedup=per_tuple_s / batch_s,
            predicate_probes=len(probe_values),
            predicate_interpreted_per_s=len(probe_values) / interp_s,
            predicate_compiled_per_s=len(probe_values) / compiled_s,
            predicate_speedup=interp_s / compiled_s,
        )
        return metrics

    benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("E0b — compiled batch dataplane: one batch vs singletons")
    table = Table(["path", "tuples/s", "speedup"])
    table.add_row(["fragment, singletons", metrics["pipeline_per_tuple_tps"], 1.0])
    table.add_row(
        [
            "fragment, one batch",
            metrics["pipeline_batch_tps"],
            metrics["pipeline_speedup"],
        ]
    )
    table.add_row(
        ["interpreted predicate", metrics["predicate_interpreted_per_s"], 1.0]
    )
    table.add_row(
        [
            "compiled predicate",
            metrics["predicate_compiled_per_s"],
            metrics["predicate_speedup"],
        ]
    )
    table.show()
    emit(
        f"batch pipeline speedup {metrics['pipeline_speedup']:.2f}x, "
        f"compiled predicate speedup {metrics['predicate_speedup']:.2f}x"
    )
    write_bench_json("dataplane", metrics)

    # acceptance floor: one batch through the filter/map pipeline must
    # be >= 3x the same tuples fed one at a time (measured ~7x)
    assert metrics["pipeline_speedup"] >= 3.0
    assert metrics["predicate_speedup"] >= 2.0


def test_window_join_probe(benchmark):
    """Probe a populated join window."""
    join = WindowJoinOperator("j", "a", "b", "k", window=1e9)
    for i in range(500):
        join.process(StreamTuple("a", i, 0.0, {"k": float(i % 50)}, 64.0), 0.0)
    probe = StreamTuple("b", 0, 0.0, {"k": 25.0}, 64.0)

    def run():
        return len(join.process(probe, 0.0))

    matches = benchmark(run)
    assert matches >= 10


def test_overlap_rate_kernel(benchmark):
    """The closed-form edge-weight computation (hot in graph building)."""
    catalog = stock_catalog(exchanges=1)
    schema = catalog.schemas()[0]
    a = StreamInterest.on(
        schema.stream_id, price=(10.0, 600.0), symbol=(0, 250)
    )
    b = StreamInterest.on(
        schema.stream_id, price=(300.0, 900.0), symbol=(100, 400)
    )
    rate = benchmark(lambda: overlap_rate(a, b, schema))
    assert rate > 0


def test_tree_routing_kernel(benchmark):
    """Route queries through a 256-entity coordinator tree."""
    rng = random.Random(1)
    tree = CoordinatorTree(k=3)
    for i in range(256):
        tree.join(Member(f"m{i}", rng.random(), rng.random()))
    router = QueryRouter(tree)
    counter = iter(range(10**9))

    def run():
        return router.route(
            f"q{next(counter)}", 1.0, (rng.random(), rng.random())
        )

    entity = benchmark(run)
    assert entity in tree.members


def test_event_loop_kernel(benchmark):
    """Schedule and drain 10k events."""

    def run():
        sim = Simulator(seed=0)
        for i in range(10_000):
            sim.schedule(i * 1e-4, lambda: None)
        sim.run()
        return sim.events_fired

    assert benchmark(run) == 10_000


def test_source_emission_kernel(benchmark):
    """Draw-and-dispatch cost of one synthetic tuple."""
    sim = Simulator(seed=2)
    catalog = stock_catalog(exchanges=1)
    source = StreamSource(sim, catalog.schemas()[0])
    source.subscribe(lambda t: None)
    tup = benchmark(source.emit)
    assert tup.stream_id == catalog.stream_ids()[0]
