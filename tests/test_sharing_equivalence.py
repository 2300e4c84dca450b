"""Property tests: shared-computation execution ≡ per-query execution.

The multi-query optimizer's contract is that rewriting a group of
colocated queries into one shared prefix fragment plus per-query taps
(:mod:`repro.engine.sharing`) is *bit-identical* to running every
query's own plan — outputs, values, sizes, stream ids, and sequence
numbering all equal, for every overlap pattern, suffix shape, and input
interleaving.  Hypothesis drives random overlap-controlled query
batches and tuple sequences through the synchronous composition and
compares exactly — including runs where a member is split out of its
group mid-stream (the adaptation protocol's migration case), which
must be invisible in the output.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.plan import Fragment
from repro.engine.sharing import (
    STATEFUL_KINDS,
    find_groups,
    group_id_for,
    plan_shared,
)
from repro.interest.predicates import StreamInterest
from repro.query.spec import AggregateSpec, JoinSpec, QuerySpec
from repro.streams.catalog import stock_catalog
from repro.streams.tuples import StreamTuple

CATALOG = stock_catalog(exchanges=2, rate=40.0)
STREAMS = ("exchange-0.trades", "exchange-1.trades")

# A small predicate pool forces fingerprint collisions (shared prefixes)
# without making every query identical.
RANGES = ((100.0, 600.0), (50.0, 400.0), (1.0, 990.0))
PROJECTS = (None, ("price",), ("price", "symbol"))


@st.composite
def query_batches(draw):
    """Random query batches with controlled fingerprint overlap."""
    count = draw(st.integers(min_value=2, max_value=6))
    queries = []
    for i in range(count):
        stream = STREAMS[draw(st.integers(0, 1))]
        lo, hi = RANGES[draw(st.integers(0, len(RANGES) - 1))]
        shape = draw(st.integers(0, 3))
        interests = (StreamInterest.on(stream, price=(lo, hi)),)
        join = aggregate = None
        if shape == 1:
            aggregate = AggregateSpec(
                attribute="price", fn="sum", window=2.0, group_by="symbol"
            )
        elif shape == 2:
            other = STREAMS[1 - STREAMS.index(stream)]
            interests = interests + (
                StreamInterest.on(other, price=(lo, hi)),
            )
        elif shape == 3:
            other = STREAMS[1 - STREAMS.index(stream)]
            interests = interests + (
                StreamInterest.on(other, volume=(1.0, 9000.0)),
            )
            join = JoinSpec(attribute="symbol", window=2.0)
        queries.append(
            QuerySpec(
                query_id=f"q{i}",
                interests=interests,
                join=join,
                aggregate=aggregate,
                project=PROJECTS[draw(st.integers(0, len(PROJECTS) - 1))],
            )
        )
    return queries


@st.composite
def tuple_sequences(draw):
    """Random time-ordered tuples across both catalog streams."""
    count = draw(st.integers(min_value=0, max_value=50))
    now = 0.0
    seqs = {stream: 0 for stream in STREAMS}
    tuples = []
    for __ in range(count):
        now += draw(st.floats(min_value=0.0, max_value=0.4))
        stream = STREAMS[draw(st.integers(0, 1))]
        values = {
            "symbol": float(draw(st.integers(0, 5))),
            "price": draw(
                st.floats(
                    min_value=0.0,
                    max_value=1000.0,
                    allow_nan=False,
                    allow_infinity=False,
                )
            ),
            "volume": draw(
                st.floats(
                    min_value=1.0,
                    max_value=10_000.0,
                    allow_nan=False,
                    allow_infinity=False,
                )
            ),
        }
        tuples.append(StreamTuple(stream, seqs[stream], now, values, 48.0))
        seqs[stream] += 1
    return tuples


def run_unshared(specs, tuples):
    """Each query runs its own plain plan (the reference execution)."""
    outputs = {spec.query_id: [] for spec in specs}
    fragments = {
        spec.query_id: Fragment(
            fragment_id=f"{spec.query_id}#ref",
            query_id=spec.query_id,
            index=0,
            operators=list(spec.build_plan(CATALOG).operators),
        )
        for spec in specs
    }
    for tup in tuples:
        for spec in specs:
            if tup.stream_id not in spec.input_streams:
                continue
            outputs[spec.query_id].extend(
                fragments[spec.query_id].run(tup, tup.created_at)
            )
    return outputs


class SharedHarness:
    """Synchronous execution of the rewritten (shared) deployment."""

    def __init__(self, specs, *, allow_stateful=True):
        self.specs = list(specs)
        self.plans = {
            spec.query_id: spec.build_canonical_plan(CATALOG)
            for spec in specs
        }
        self.groups = plan_shared(
            self.specs,
            self.plans,
            CATALOG,
            allow_stateful=allow_stateful,
        )
        grouped = {qid for g in self.groups for qid in g.members}
        self.standalone = {
            spec.query_id: Fragment(
                fragment_id=f"{spec.query_id}#f0",
                query_id=spec.query_id,
                index=0,
                operators=list(self.plans[spec.query_id].operators),
            )
            for spec in specs
            if spec.query_id not in grouped
        }
        self.outputs = {spec.query_id: [] for spec in specs}
        self.streams_of = {
            spec.query_id: set(spec.input_streams) for spec in specs
        }

    def feed(self, tup):
        for group in self.groups:
            if tup.stream_id not in group.input_streams:
                continue
            prefix_out = group.shared.run(tup, tup.created_at)
            for qid in group.members:
                tap = group.taps[qid]
                for out in prefix_out:
                    self.outputs[qid].extend(tap.run(out, tup.created_at))
        for qid, fragment in self.standalone.items():
            if tup.stream_id in self.streams_of[qid]:
                self.outputs[qid].extend(fragment.run(tup, tup.created_at))

    def split_member(self, qid):
        """Detach one member mid-stream (the migration split)."""
        for group in self.groups:
            if qid not in group.members:
                continue
            assert not group.stateful
            group.taps.pop(qid)
            group.members = tuple(m for m in group.members if m != qid)
            group.shared.members = group.members
            if len(group.members) < 2:
                for rest in group.members:
                    self.standalone[rest] = Fragment(
                        fragment_id=f"{rest}#f0",
                        query_id=rest,
                        index=0,
                        operators=list(self.plans[rest].operators),
                    )
                self.groups.remove(group)
            self.standalone[qid] = Fragment(
                fragment_id=f"{qid}#f0",
                query_id=qid,
                index=0,
                operators=list(self.plans[qid].operators),
            )
            return True
        return False


@settings(max_examples=60, deadline=None)
@given(specs=query_batches(), tuples=tuple_sequences())
def test_shared_equals_unshared(specs, tuples):
    """The rewrite is bit-identical for every overlap pattern."""
    harness = SharedHarness(specs)
    for tup in tuples:
        harness.feed(tup)
    assert harness.outputs == run_unshared(specs, tuples)


@settings(max_examples=40, deadline=None)
@given(specs=query_batches(), tuples=tuple_sequences(), data=st.data())
def test_midstream_split_is_invisible(specs, tuples, data):
    """Splitting a member out of a stateless-prefix group mid-stream
    (what migration does under the closed gate) never changes output."""
    harness = SharedHarness(specs, allow_stateful=False)
    splittable = [qid for g in harness.groups for qid in g.members]
    if not splittable or not tuples:
        return
    victim = data.draw(st.sampled_from(sorted(splittable)))
    cut = data.draw(st.integers(0, len(tuples)))
    for tup in tuples[:cut]:
        harness.feed(tup)
    assert harness.split_member(victim)
    for tup in tuples[cut:]:
        harness.feed(tup)
    assert harness.outputs == run_unshared(specs, tuples)


@settings(max_examples=60, deadline=None)
@given(specs=query_batches())
def test_fingerprints_match_canonical_plan(specs):
    """Spec-level fingerprints equal compiled canonical-plan ones."""
    for spec in specs:
        assert (
            spec.operator_fingerprints()
            == spec.build_canonical_plan(CATALOG).fingerprints()
        )


@settings(max_examples=40, deadline=None)
@given(specs=query_batches())
def test_grouping_is_sound(specs):
    """Groups only ever merge equal stream sets and equal prefixes."""
    by_id = {spec.query_id: spec for spec in specs}
    for members, prefix_len in find_groups(specs):
        assert len(members) >= 2
        fps = {qid: by_id[qid].operator_fingerprints() for qid in members}
        streams = {frozenset(by_id[qid].input_streams) for qid in members}
        assert len(streams) == 1
        base = fps[members[0]][:prefix_len]
        assert all(fp[:prefix_len] == base for fp in fps.values())
    stateless = find_groups(specs, allow_stateful=False)
    for members, prefix_len in stateless:
        base = by_id[members[0]].operator_fingerprints()
        assert not any(
            fp[0] in STATEFUL_KINDS for fp in base[:prefix_len]
        )


def test_group_ids_are_deterministic():
    assert group_id_for(("q7", "q2", "q11")) == "sh.q11"


def _result_keys(system):
    observed = set()

    def wrap(handler):
        def wrapped(query_id, tup):
            observed.add((query_id, tup.stream_id, tup.seq))
            handler(query_id, tup)

        return wrapped

    for entity in system.entities.values():
        if entity.result_handler is not None:
            entity.result_handler = wrap(entity.result_handler)
    return observed


@pytest.mark.parametrize("seed", [1, 9])
def test_sim_shared_run_matches_unshared(seed):
    """End-to-end: a shared-execution sim run delivers the identical
    result set as an unshared run, forms at least one group, and passes
    the sharing structural audit."""
    from dataclasses import replace

    from repro.analysis.invariants import audit_federation
    from repro.core.system import FederatedSystem
    from repro.workloads import sharing_workload

    catalog, config, queries = sharing_workload(seed)
    keys = {}
    systems = {}
    for shared in (False, True):
        system = FederatedSystem(
            catalog, replace(config, shared_execution=shared)
        )
        system.submit(queries)
        observed = _result_keys(system)
        system.run(duration=2.0)
        system.sim.run()
        keys[shared], systems[shared] = observed, system
    assert keys[True] == keys[False]
    assert keys[True]
    assert audit_federation(systems[True]) == []
    assert sum(
        len(entity.shared) for entity in systems[True].entities.values()
    ) >= 1


def test_live_shared_run_matches_unshared_sim():
    """End-to-end live leg: shared live execution reproduces the
    unshared simulated result set exactly."""
    from dataclasses import replace

    from repro.core.system import FederatedSystem
    from repro.live import LiveRuntime, LiveSettings
    from repro.workloads import sharing_workload

    catalog, config, queries = sharing_workload(4)
    system = FederatedSystem(catalog, replace(config, shared_execution=False))
    system.submit(queries)
    observed = _result_keys(system)
    system.run(duration=1.5)
    system.sim.run()

    runtime = LiveRuntime(
        catalog, config, LiveSettings(duration=1.5, batch_size=4)
    )
    runtime.submit(queries)
    report = runtime.run()
    assert report.dropped_tuples == 0
    live_keys = {
        (query_id, tup.stream_id, tup.seq)
        for query_id, tups in runtime.results.items()
        for tup in tups
    }
    assert live_keys == observed
    assert sum(
        len(entity.shared) for entity in runtime.planner.entities.values()
    ) >= 1


def test_adaptive_split_preserves_results():
    """A shared group member migrating mid-run (split under the closed
    gate, re-share at source and target) is invisible in results."""
    from dataclasses import replace

    from repro.core.system import FederatedSystem
    from repro.live import (
        Adaptation,
        AdaptationSettings,
        LiveRuntime,
        LiveSettings,
    )
    from repro.workloads import sharing_workload

    catalog, config, queries = sharing_workload(3)
    system = FederatedSystem(catalog, replace(config, shared_execution=False))
    system.submit(queries)
    observed = _result_keys(system)
    system.run(duration=2.5)
    system.sim.run()

    runtime = LiveRuntime(
        catalog,
        config,
        LiveSettings(duration=2.5, batch_size=4),
        services=[
            Adaptation(
                AdaptationSettings(
                    period=0.5, imbalance_threshold=1.01, max_imbalance=1.0
                )
            )
        ],
    )
    runtime.submit(queries)
    report = runtime.run()
    adaptation = report.adaptation
    assert adaptation.queries_migrated >= 1
    assert adaptation.reshares >= 1
    assert adaptation.audit_violations == 0
    assert adaptation.sharing.shared_fragments >= 1
    live_keys = {
        (query_id, tup.stream_id, tup.seq)
        for query_id, tups in runtime.results.items()
        for tup in tups
    }
    assert live_keys == observed
