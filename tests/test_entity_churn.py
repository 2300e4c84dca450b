"""Tests for runtime entity membership: join, leave, crash, re-homing."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.system import FederatedSystem, SystemConfig
from repro.query.generator import WorkloadConfig, generate_workload
from repro.streams.catalog import stock_catalog


def running_system(entity_count=4, queries=20, seed=2):
    catalog = stock_catalog(exchanges=2, rate=60.0)
    system = FederatedSystem(
        catalog,
        SystemConfig(
            entity_count=entity_count, processors_per_entity=2, seed=seed
        ),
    )
    workload = generate_workload(
        catalog,
        WorkloadConfig(query_count=queries, join_fraction=0.0),
        seed=seed,
    )
    system.submit(workload.queries)
    return system


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------
def test_add_entity_grows_membership():
    system = running_system()
    new_id = system.add_entity()
    assert new_id in system.entities
    assert new_id in system.portal.entity_ids
    assert new_id in system.portal.tree.members
    assert system.portal.tree.check_invariants() == []


def test_add_entity_with_explicit_id():
    system = running_system()
    assert system.add_entity("custom-entity") == "custom-entity"
    with pytest.raises(ValueError):
        system.add_entity("custom-entity")


def test_system_keeps_running_after_join():
    system = running_system()
    system.run(2.0)
    system.add_entity()
    report = system.run(2.0)
    assert report.results > 0


def parent_maps(system):
    return {
        stream_id: {e: runtime.tree.parent_of(e) for e in runtime.tree.entities}
        for stream_id, runtime in system.dissemination.items()
    }


def test_add_entity_leaves_running_trees_in_place():
    """The newcomer hosts nothing, so no tree wants it: joining changes
    no tree's shape, including what an online arrival attached."""
    system = running_system(queries=1)
    workload = generate_workload(
        system.catalog,
        WorkloadConfig(query_count=3, join_fraction=0.0),
        seed=5,
    )
    for query in workload.queries:
        system.submit_one(replace(query, query_id=f"late-{query.query_id}"))
    assert system.tree_attaches > 0
    before = parent_maps(system)
    system.add_entity()
    assert parent_maps(system) == before


# ----------------------------------------------------------------------
# Leaves
# ----------------------------------------------------------------------
def test_remove_entity_rehomes_queries():
    system = running_system()
    victim = max(
        system.entities, key=lambda e: system.entities[e].query_count
    )
    count_before = system.entities[victim].query_count
    assert count_before > 0
    stranded = system.remove_entity(victim)
    assert len(stranded) == count_before
    assert victim not in system.entities
    # every stranded query hosted somewhere else
    for query_id in stranded:
        home = system.allocation_result.assignment[query_id]
        assert home != victim
        assert query_id in system.entities[home].hosted
    assert system.rehomed_queries == count_before


def test_remove_unknown_entity_raises():
    system = running_system()
    with pytest.raises(KeyError):
        system.remove_entity("ghost")


def test_cannot_remove_last_entity():
    system = running_system(entity_count=1)
    only = next(iter(system.entities))
    with pytest.raises(RuntimeError):
        system.remove_entity(only)


def test_results_continue_after_leave():
    system = running_system()
    system.run(2.0)
    before = system.tracker.total_results
    victim = next(iter(system.entities))
    system.remove_entity(victim)
    system.run(3.0)
    assert system.tracker.total_results > before


def test_coordinator_tree_healthy_after_leaves():
    system = running_system(entity_count=6)
    for __ in range(3):
        victim = next(iter(system.entities))
        system.remove_entity(victim)
        assert system.portal.tree.check_invariants() == []


# ----------------------------------------------------------------------
# Crashes
# ----------------------------------------------------------------------
def test_crash_repairs_after_detection_delay():
    system = running_system()
    system.run(1.0)
    victim = max(
        system.entities, key=lambda e: system.entities[e].query_count
    )
    system.crash_entity(victim, detection_delay=2.0)
    # not yet repaired
    assert victim in system.entities
    system.run(1.0)
    assert victim in system.entities
    system.run(2.0)
    assert victim not in system.entities
    assert system.portal.tree.check_invariants() == []


def test_results_resume_after_crash_repair():
    system = running_system(entity_count=4, queries=16)
    system.run(1.0)
    victim = max(
        system.entities, key=lambda e: system.entities[e].query_count
    )
    stranded = sorted(system.entities[victim].hosted)
    system.crash_entity(victim, detection_delay=1.0)
    system.run(6.0)
    # at least one stranded query produces results after repair
    resumed = [q for q in stranded if system.tracker.pr(q) is not None]
    assert resumed


def test_crashed_entity_drops_traffic_until_repair():
    system = running_system()
    victim = next(iter(system.entities))
    system.crash_entity(victim, detection_delay=2.0)
    system.run(1.0)
    assert system.network.dropped_messages > 0
