"""Tests for the static-analysis framework and the invariant auditor.

Every rule in the DET/ASY/INV packs gets at least one positive fixture
(the rule fires) and one negative (idiomatic code it must not flag),
plus suppression parsing, the JSON reporter schema, and violation-case
coverage for the dynamic checkers.
"""

from __future__ import annotations

import json

from repro.analysis import (
    all_rules,
    analyze_sources,
    render_json,
    render_text,
)
from repro.analysis.invariants import (
    check_allocation_balance,
    check_coordinator_tree,
    check_delegation,
    check_dissemination_tree,
    selfcheck,
)
from repro.analysis.suppressions import Suppressions
from repro.core.entity import Entity
from repro.dissemination.tree import DisseminationTree


def rules_fired(source: str, path: str = "lib.py") -> set[str]:
    """Lint one snippet and return the set of rule ids that fired."""
    return {f.rule for f in analyze_sources({path: source})}


# ----------------------------------------------------------------------
# Framework basics
# ----------------------------------------------------------------------
def test_rule_registry_has_all_packs():
    ids = {rule.id for rule in all_rules()}
    assert {
        "DET001",
        "DET002",
        "DET003",
        "ASY001",
        "ASY002",
        "ASY003",
        "ASY004",
        "ASY005",
        "ASY006",
        "INV001",
        "PERF001",
        "PROTO001",
        "PROTO002",
        "PROTO003",
        "PROTO004",
    } <= ids
    assert len(ids) >= 8


def test_syntax_error_is_reported_not_raised():
    findings = analyze_sources({"bad.py": "def f(:\n"})
    assert [f.rule for f in findings] == ["E999"]


# ----------------------------------------------------------------------
# DET pack
# ----------------------------------------------------------------------
def test_det001_flags_wall_clock_calls():
    assert "DET001" in rules_fired("import time\nt = time.time()\n")
    assert "DET001" in rules_fired("import time\nt = time.monotonic()\n")
    assert "DET001" in rules_fired(
        "from datetime import datetime\nnow = datetime.now()\n"
    )


def test_det001_allows_perf_counter_and_loop_time():
    clean = (
        "import time\n"
        "start = time.perf_counter()\n"
        "now = loop.time()\n"
    )
    assert "DET001" not in rules_fired(clean)


def test_det001_exempts_clock_modules():
    source = "import time\nt = time.monotonic()\n"
    assert "DET001" in rules_fired(source, "src/live/other.py")
    assert "DET001" not in rules_fired(source, "src/live/entity_task.py")


def test_det002_flags_module_level_random():
    assert "DET002" in rules_fired("import random\nx = random.random()\n")
    assert "DET002" in rules_fired("from random import randint\n")


def test_det002_allows_seeded_instances():
    clean = (
        "import random\n"
        "rng = random.Random(7)\n"
        "x = rng.random()\n"
        "sysrng = random.SystemRandom()\n"
    )
    assert "DET002" not in rules_fired(clean)


def test_det003_flags_set_iteration():
    assert "DET003" in rules_fired(
        "for item in {1, 2, 3}:\n    print(item)\n"
    )
    assert "DET003" in rules_fired("out = [x for x in set(items)]\n")
    assert "DET003" in rules_fired("out = list(set(a) | set(b))\n")


def test_det003_allows_sorted_and_membership():
    clean = (
        "for item in sorted({1, 2, 3}):\n"
        "    print(item)\n"
        "ok = 3 in {1, 2, 3}\n"
        "d = {'a': 1}\n"
        "for key in d:\n"
        "    print(key)\n"
    )
    assert "DET003" not in rules_fired(clean)


# ----------------------------------------------------------------------
# ASY pack
# ----------------------------------------------------------------------
def test_asy001_flags_blocking_sleep_in_async_def():
    source = (
        "import time\n"
        "async def worker():\n"
        "    time.sleep(1)\n"
    )
    fired = rules_fired(source)
    assert "ASY001" in fired


def test_asy001_allows_sync_sleep_and_async_sleep():
    clean = (
        "import asyncio, time\n"
        "def blocking_helper():\n"
        "    time.sleep(1)\n"
        "async def worker():\n"
        "    await asyncio.sleep(1)\n"
    )
    assert "ASY001" not in rules_fired(clean)


def test_asy002_flags_unawaited_coroutine_calls():
    source = (
        "import asyncio\n"
        "async def drain():\n"
        "    pass\n"
        "async def worker():\n"
        "    drain()\n"
        "    asyncio.sleep(1)\n"
    )
    findings = [
        f for f in analyze_sources({"lib.py": source}) if f.rule == "ASY002"
    ]
    assert len(findings) == 2


def test_asy002_ignores_ambiguous_names():
    # `run` exists both sync and async: never safe to flag.
    clean = (
        "async def run():\n"
        "    pass\n"
        "class Runner:\n"
        "    def run(self):\n"
        "        pass\n"
        "def main(runner):\n"
        "    runner.run()\n"
    )
    assert "ASY002" not in rules_fired(clean)


def test_asy003_flags_await_holding_lock():
    source = (
        "async def update(self):\n"
        "    async with self._lock:\n"
        "        await self.flush_remote()\n"
    )
    assert "ASY003" in rules_fired(source)


def test_asy003_allows_condition_wait_pattern():
    # The asyncio.Condition idiom releases the lock while waiting.
    clean = (
        "async def get(self):\n"
        "    async with self._cond:\n"
        "        await self._cond.wait()\n"
    )
    assert "ASY003" not in rules_fired(clean)


def test_asy004_flags_discarded_task_handle():
    source = (
        "import asyncio\n"
        "async def spawn(worker):\n"
        "    asyncio.create_task(worker(), name='w')\n"
    )
    assert "ASY004" in rules_fired(source)


def test_asy004_allows_retained_handle():
    clean = (
        "import asyncio\n"
        "async def spawn(worker, tasks):\n"
        "    tasks.append(asyncio.create_task(worker(), name='w'))\n"
    )
    assert "ASY004" not in rules_fired(clean)


def test_asy005_flags_unnamed_task_in_library_code():
    source = (
        "import asyncio\n"
        "async def spawn(worker, tasks):\n"
        "    tasks.append(asyncio.create_task(worker()))\n"
    )
    assert "ASY005" in rules_fired(source, "src/lib.py")
    # tests are exempt: anonymous tasks in fixtures are fine
    assert "ASY005" not in rules_fired(source, "tests/test_lib.py")


def test_asy005_allows_named_tasks():
    clean = (
        "import asyncio\n"
        "async def spawn(worker, tasks):\n"
        "    tasks.append(asyncio.create_task(worker(), name='live:w'))\n"
    )
    assert "ASY005" not in rules_fired(clean)


def test_asy006_flags_write_without_drain():
    source = (
        "async def pump(writer, frames):\n"
        "    for frame in frames:\n"
        "        writer.write(frame)\n"
    )
    assert "ASY006" in rules_fired(source)


def test_asy006_allows_write_paired_with_drain():
    clean = (
        "async def pump(writer, frames):\n"
        "    for frame in frames:\n"
        "        writer.write(frame)\n"
        "    await writer.drain()\n"
    )
    assert "ASY006" not in rules_fired(clean)


def test_asy006_tracks_receivers_independently():
    # draining one writer does not excuse an undrained second writer
    source = (
        "async def relay(a_writer, b_writer, frame):\n"
        "    a_writer.write(frame)\n"
        "    await a_writer.drain()\n"
        "    b_writer.write(frame)\n"
    )
    fired = rules_fired(source)
    assert "ASY006" in fired
    # non-writer receivers (files, buffers) are out of scope
    clean = (
        "async def log(handle, line):\n"
        "    handle.write(line)\n"
    )
    assert "ASY006" not in rules_fired(clean)


# ----------------------------------------------------------------------
# INV pack
# ----------------------------------------------------------------------
def test_inv001_flags_cross_module_private_access():
    assert "INV001" in rules_fired(
        "def peek(tree):\n    return tree._parent\n"
    )


def test_inv001_allows_own_module_self_and_tests():
    clean = (
        "class IntervalSet:\n"
        "    def __init__(self):\n"
        "        self._intervals = []\n"
        "    def merge(self, other):\n"
        "        return self._intervals + other._intervals\n"
        "def helper(obj):\n"
        "    return obj._asdict()\n"
    )
    assert "INV001" not in rules_fired(clean)
    probe = "def test_probe(tree):\n    assert tree._parent\n"
    assert "INV001" not in rules_fired(probe, "tests/test_tree.py")


# ----------------------------------------------------------------------
# PERF pack
# ----------------------------------------------------------------------
_REPLACE_CALLS = (
    "import dataclasses\n"
    "from dataclasses import replace\n"
    "from dataclasses import replace as copy_with\n"
    "def relabel(tup, stream_id):\n"
    "    a = dataclasses.replace(tup, stream_id=stream_id)\n"
    "    b = replace(tup, stream_id=stream_id)\n"
    "    return copy_with(tup, stream_id=stream_id)\n"
)


def test_perf001_flags_dataclasses_replace_on_the_dataplane():
    for path in (
        "src/repro/engine/partition.py",
        "src/repro/engine/operators/union.py",
        "src/repro/streams/tuples.py",
        "src/repro/dissemination/tree.py",
        "src/repro/live/entity_task.py",
    ):
        findings = [
            f
            for f in analyze_sources({path: _REPLACE_CALLS})
            if f.rule == "PERF001"
        ]
        assert [f.line for f in findings] == [5, 6, 7], path


def test_perf001_leaves_control_paths_and_other_replaces_alone():
    for path in (
        "src/repro/live/adaptation.py",  # report objects, once per run
        "src/repro/query/spec.py",
        "tests/test_tuples.py",
        "lib.py",
    ):
        assert "PERF001" not in rules_fired(_REPLACE_CALLS, path)
    clean = (
        "from dataclasses import dataclass\n"
        "def replace(tup, **changes):\n"
        "    return tup\n"
        "def rename(tup, text):\n"
        "    text.replace('a', 'b')\n"
        "    tup._replace(seq=1)\n"
        "    return replace(tup, seq=1)\n"
    )
    assert "PERF001" not in rules_fired(clean, "src/repro/engine/plan.py")
    suppressed = (
        "from dataclasses import replace\n"
        "def rebalanced(spec, overrides):\n"
        "    # repro: allow[PERF001] a config object, once per rebalance\n"
        "    return replace(spec, overrides=overrides)\n"
    )
    assert "PERF001" not in rules_fired(
        suppressed, "src/repro/engine/partition.py"
    )


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_trailing_suppression_silences_one_line():
    source = (
        "import time\n"
        "a = time.time()  # repro: allow[DET001] wall time for a banner\n"
        "b = time.time()\n"
    )
    findings = [
        f for f in analyze_sources({"lib.py": source}) if f.rule == "DET001"
    ]
    assert [f.line for f in findings] == [3]


def test_standalone_comment_suppresses_next_line():
    source = (
        "# repro: allow[DET003] folded through a commutative sum\n"
        "total = sum(x for x in {1, 2, 3})\n"
    )
    assert "DET003" not in rules_fired(source)


def test_file_wide_suppression_and_multiple_rules():
    source = (
        "# repro: allow-file[DET001] this module renders wall-clock banners\n"
        "import time\n"
        "a = time.time()\n"
        "b = time.monotonic()  # repro: allow[DET002,DET003] unrelated\n"
    )
    fired = rules_fired(source)
    assert "DET001" not in fired  # file-wide
    # the trailing multi-rule directive does not cover DET001 rules
    supp = Suppressions.from_source(source)
    assert supp.is_suppressed("DET002", 4)
    assert supp.is_suppressed("DET003", 4)
    assert not supp.is_suppressed("ASY001", 4)


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def test_json_reporter_schema():
    findings = analyze_sources(
        {"lib.py": "import time\nx = time.time()\n"}
    )
    document = json.loads(render_json(findings))
    assert document["schema"] == "repro-lint/1"
    assert document["total"] == len(document["findings"]) == 1
    assert document["counts"] == {"DET001": 1}
    entry = document["findings"][0]
    assert set(entry) == {"path", "line", "col", "rule", "message"}
    assert entry["path"] == "lib.py"
    assert entry["line"] == 2


def test_text_reporter_mentions_location_and_tally():
    findings = analyze_sources(
        {"lib.py": "import time\nx = time.time()\n"}
    )
    text = render_text(findings)
    assert "lib.py:2:" in text
    assert "DET001=1" in text
    assert render_text([]) == "no findings"


# ----------------------------------------------------------------------
# Dynamic invariant checkers
# ----------------------------------------------------------------------
def test_dissemination_checker_accepts_healthy_tree():
    tree = DisseminationTree("s", max_fanout=2)
    tree.attach("e0")
    tree.attach("e1", "e0")
    assert check_dissemination_tree(tree) == []


def test_dissemination_checker_catches_broken_links_and_fanout():
    tree = DisseminationTree("s", max_fanout=2)
    tree.attach("e0")
    tree.attach("e1", "e0")
    tree.attach("e2", "e0")
    # Corrupt the structure behind the API's back: orphan + overload.
    tree._parent["e1"] = "e9"
    tree._children["e0"].append("ghost")
    problems = check_dissemination_tree(tree)
    details = " | ".join(v.detail for v in problems)
    assert "e9" in details
    assert "ghost" in details


def test_dissemination_checker_catches_starved_interest():
    from repro.interest.predicates import Interval, IntervalSet, StreamInterest

    tree = DisseminationTree("s", max_fanout=3)
    tree.attach("e0")
    tree.attach("e1", "e0")
    interest = StreamInterest(
        stream_id="s",
        constraints={"price": IntervalSet([Interval(0.0, 10.0)])},
    )
    tree.set_interests("e1", [interest])
    assert check_dissemination_tree(tree) == []
    # Corrupt the aggregate behind the API's back: the edges forward
    # nothing even though e1 still has a registered interest below.
    tree._dirty = False
    tree._subtree_filter = {"e0": None, "e1": None}
    problems = check_dissemination_tree(tree)
    assert any("forwards nothing" in v.detail for v in problems)


def test_delegation_checker_positive_and_negative():
    entity = Entity.__new__(Entity)  # structure-only probe

    class FakeScheme:
        """Minimal stand-in mirroring DelegationScheme's audit surface."""

        def __init__(self, processors, delegates):
            self.processor_ids = processors
            self._delegates = delegates

        def delegate_of(self, stream_id):
            return self._delegates.get(stream_id)

    entity.entity_id = "e0"
    entity.delegation = FakeScheme(["p0"], {"s0": "p0"})
    entity.interests_by_stream = lambda: {"s0": [object()]}
    assert check_delegation(entity) == []

    entity.delegation = FakeScheme(["p0"], {})
    assert any(
        "no delegation processor" in v.detail
        for v in check_delegation(entity)
    )
    entity.delegation = FakeScheme(["p0"], {"s0": "p-dead"})
    assert any(
        "missing processor" in v.detail for v in check_delegation(entity)
    )
    # an entity with no surviving processors is recovery's problem
    entity.delegation = FakeScheme([], {})
    assert check_delegation(entity) == []


def test_balance_checker_thresholds():
    class FakeGraph:
        """Graph stub with a fixed imbalance."""

        def imbalance(self, assignment, parts):
            return 1.8

    assert check_allocation_balance(
        FakeGraph(), {}, 4, threshold=2.0
    ) == []
    violations = check_allocation_balance(
        FakeGraph(), {}, 4, threshold=1.5
    )
    assert violations and "imbalance" in violations[0].detail


def test_coordinator_checker_wraps_tree_invariants():
    from repro.coordination.tree import CoordinatorTree, Member

    tree = CoordinatorTree(k=2)
    for i in range(6):
        tree.join(Member(f"m{i}", float(i), float(i % 3)))
    assert check_coordinator_tree(tree) == []
    # Corrupt a cluster behind the API's back: bounds must trip.
    layer0 = tree.layers[0]
    victim = layer0[0].member_ids[0]
    layer0[0].member_ids.remove(victim)
    problems = check_coordinator_tree(tree)
    assert problems and all(v.check == "coordinator" for v in problems)


def test_selfcheck_demo_federation_is_clean():
    assert selfcheck(seed=3, entity_count=4, query_count=24) == []


# ----------------------------------------------------------------------
# PROTO pack (wire-protocol conformance)
# ----------------------------------------------------------------------
_PROTO_CODEC = """
HELLO = 1
PING = 2

FRAME_TYPE_NAMES = {HELLO: "HELLO", PING: "PING"}

FRAME_DIRECTIONS = {
    "HELLO": ("worker", "coordinator"),
    "PING": ("coordinator", "worker"),
}
"""

_PROTO_COORDINATOR = """
import codec

def serve(conn, frame_type, payload):
    if frame_type == codec.HELLO:
        hello = codec.decode_json(payload)
    conn.send_json(codec.PING, {"round": 1})
"""

_PROTO_WORKER = """
import codec

def serve(conn, frame_type, payload):
    if frame_type == codec.PING:
        ping = codec.decode_json(payload)
    conn.send_json(codec.HELLO, {"port": 1})
"""


def proto_fired(**overrides: str) -> set[str]:
    sources = {
        "proto/codec.py": _PROTO_CODEC,
        "proto/coordinator.py": _PROTO_COORDINATOR,
        "proto/worker.py": _PROTO_WORKER,
    }
    for key, source in overrides.items():
        sources[f"proto/{key}.py"] = source
    return {
        f.rule
        for f in analyze_sources(sources)
        if f.rule.startswith("PROTO")
    }


def test_proto_clean_fixture_has_no_findings():
    assert proto_fired() == set()


def test_proto001_missing_handler():
    worker = _PROTO_WORKER.replace(
        "if frame_type == codec.PING:", "if frame_type == 99:"
    )
    assert "PROTO001" in proto_fired(worker=worker)


def test_proto001_inert_when_role_module_absent():
    """Linting without the worker module must not claim missing handlers."""
    sources = {
        "proto/codec.py": _PROTO_CODEC,
        "proto/coordinator.py": _PROTO_COORDINATOR,
    }
    fired = {
        f.rule
        for f in analyze_sources(sources)
        if f.rule.startswith("PROTO")
    }
    assert "PROTO001" not in fired


def test_proto002_payload_family_divergence():
    worker = _PROTO_WORKER.replace(
        "ping = codec.decode_json(payload)",
        "ping = codec.decode_batch(payload)",
    )
    assert "PROTO002" in proto_fired(worker=worker)


def test_proto003_sender_outside_declared_role():
    worker = _PROTO_WORKER.replace(
        'conn.send_json(codec.HELLO, {"port": 1})',
        'conn.send_json(codec.PING, {"round": 2})',
    )
    assert "PROTO003" in proto_fired(worker=worker)


def test_proto003_unmapped_module_sending_frames():
    rogue = 'import codec\n\ndef f(conn):\n    conn.send_json(codec.HELLO, {})\n'
    assert "PROTO003" in proto_fired(rogue=rogue)


def test_proto004_registry_inconsistencies():
    missing_direction = _PROTO_CODEC.replace(
        '    "PING": ("coordinator", "worker"),\n', ""
    )
    assert "PROTO004" in proto_fired(codec=missing_direction)

    missing_name = _PROTO_CODEC.replace('PING: "PING"', 'PING: "PONG"')
    assert "PROTO004" in proto_fired(codec=missing_name)

    duplicate_id = _PROTO_CODEC.replace("PING = 2", "PING = 1")
    assert "PROTO004" in proto_fired(codec=duplicate_id)

    unknown_role = _PROTO_CODEC.replace(
        '"PING": ("coordinator", "worker")', '"PING": ("coordinator", "gateway")'
    )
    assert "PROTO004" in proto_fired(codec=unknown_role)


def test_proto_rules_clean_on_real_distributed_package():
    """The shipped coordinator/worker/codec agree with the registry."""
    from pathlib import Path

    sources = {
        str(path): path.read_text(encoding="utf-8")
        for path in Path("src/repro/distributed").glob("*.py")
    }
    fired = {
        f.rule
        for f in analyze_sources(sources)
        if f.rule.startswith("PROTO")
    }
    assert fired == set()
