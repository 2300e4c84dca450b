"""Smoke tests: every bench module imports and declares benchmark tests.

Guards the harness against bitrot without paying benchmark runtimes in
the unit suite.
"""

from __future__ import annotations

import ast
import importlib.util
import pathlib

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_FILES = sorted(BENCH_DIR.glob("bench_*.py"))


def load(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_directory_is_complete():
    names = {p.stem for p in BENCH_FILES}
    expected = {
        "bench_figure2_query_graph",
        "bench_table1_cooperation",
        "bench_dissemination_scalability",
        "bench_early_filtering",
        "bench_coordinator_tree",
        "bench_allocation_quality",
        "bench_adaptive_repartitioning",
        "bench_delegation",
        "bench_operator_placement",
        "bench_operator_ordering",
        "bench_assignment_vs_partitioning",
        "bench_end_to_end",
        "bench_entity_churn",
        "bench_monitored_routing",
    }
    assert expected <= names


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.stem for p in BENCH_FILES])
def test_bench_module_imports_and_has_tests(path):
    module = load(path)
    assert module.__doc__, f"{path.stem} lacks a docstring"
    tests = [name for name in vars(module) if name.startswith("test_")]
    assert tests, f"{path.stem} defines no benchmark tests"


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.stem for p in BENCH_FILES])
def test_bench_asserts_claims_without_timing_them(path):
    """Benches are plain tests: no timer fixture, no result files.

    Speed is measured by ``perf/`` alone; a bench prints its table and
    asserts its claim in-file.
    """
    source = path.read_text(encoding="utf-8")
    for forbidden in ("write_bench_json", "pytest_benchmark", "BENCH_"):
        assert forbidden not in source, f"{path.stem} mentions {forbidden}"
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
            params = [a.arg for a in node.args.args]
            assert "benchmark" not in params, (
                f"{path.stem}::{node.name} takes a benchmark fixture"
            )


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.stem for p in BENCH_FILES])
def test_bench_docstring_names_its_experiment(path):
    module = load(path)
    assert "E1" in module.__doc__ or "E" in module.__doc__.split()[0], (
        f"{path.stem} docstring should open with its experiment id"
    )
