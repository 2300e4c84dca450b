"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

    python -m pytest perf/tests -q

They run ``perf/run.py --smoke`` (1/10-length traces, one repeat) the
way a user would — as a subprocess — and check the contract between
``BENCHMARK.json``, the printed metrics and the correctness checks.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
RUN = os.path.join(REPO_ROOT, "perf", "run.py")
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")


def run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *arguments],
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def passes(tmp_path_factory) -> dict:
    """Two untraced smoke passes at seed 91, one at 92, one traced."""
    out = tmp_path_factory.mktemp("perf")
    gathered = {}
    for label, arguments in {
        "a": ("--seed", "91"),
        "b": ("--seed", "91"),
        "other": ("--seed", "92"),
        "traced": ("--seed", "91", "--trace"),
    }.items():
        path = str(out / f"{label}.json")
        started = time.perf_counter()
        done = run("--smoke", "--out", path, *arguments)
        with open(path, encoding="utf-8") as handle:
            gathered[label] = {
                "exit": done.returncode,
                "stdout": done.stdout,
                "seconds": time.perf_counter() - started,
                "path": path,
                **json.load(handle),
            }
    return gathered


def test_every_declared_end_to_end_metric_is_emitted(spec, passes):
    for workload in spec["workloads"]:
        metrics = passes["a"]["workloads"][workload["name"]]["metrics"]
        assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
        for declared in spec["end_to_end"]:
            assert NAME.fullmatch(declared["name"])
            emitted = metrics[declared["name"]]
            assert emitted["unit"] == declared["unit"]
            assert UNIT.fullmatch(emitted["unit"])
            assert emitted["value"] > 0, declared["name"]


def test_every_declared_layer_metric_is_emitted(spec, passes):
    assert passes["traced"]["exit"] == 0, passes["traced"]["stdout"]
    for workload in spec["workloads"]:
        metrics = passes["traced"]["workloads"][workload["name"]]["metrics"]
        assert set(metrics) == {m["name"] for m in spec["per_layer"]}
        for declared in spec["per_layer"]:
            assert NAME.fullmatch(declared["name"])
            emitted = metrics[declared["name"]]
            assert emitted["unit"] == declared["unit"]
            assert isinstance(emitted["value"], (int, float))
    layers = passes["traced"]["workloads"]
    assert layers["dist2"]["metrics"]["distributed.encode_batch.calls"]["value"] > 0
    assert layers["replay"]["metrics"]["distributed.encode_batch.calls"]["value"] == 0
    assert layers["stateful"]["metrics"]["engine.partition.busy_s"]["value"] > 0


def test_traced_pass_exports_chrome_traces(spec, passes):
    for workload in spec["workloads"]:
        path = os.path.join(
            REPO_ROOT, "perf", "out", f"trace-{workload['name']}.json"
        )
        with open(path, encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
        assert any(event["ph"] == "X" for event in events)


def test_reference_checks_pass_and_counts_repeat(spec, passes):
    # every workload run.py knows: the declared ones and the ungated two
    names = set(passes["a"]["workloads"])
    assert names == {w["name"] for w in spec["workloads"]} | {"dist2", "squeeze"}
    for label in ("a", "b", "other"):
        assert passes[label]["exit"] == 0, passes[label]["stdout"]
        for name in names:
            record = passes[label]["workloads"][name]
            assert record["correct"] is True
            assert record["failed"] == 0
            assert record["attempted"] >= 1
    for name in names:
        first = passes["a"]["workloads"][name]["counts"]
        again = passes["b"]["workloads"][name]["counts"]
        other = passes["other"]["workloads"][name]["counts"]
        assert first == again, name
        assert first != other, name


def test_smoke_pass_is_short(passes):
    assert passes["a"]["seconds"] < 30.0


def test_wrong_reference_fails_the_run(tmp_path):
    done = run(
        "--workload", "replay", "--smoke", "--seed", "91", "--corrupt-reference"
    )
    assert done.returncode != 0
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] >= 1


def test_compare_flags_a_regression(spec, passes, tmp_path):
    base = passes["a"]["path"]
    assert run("--compare", base, base).returncode == 0
    with open(base, encoding="utf-8") as handle:
        worse = json.load(handle)
    metric = worse["workloads"]["replay"]["metrics"]["ingest_tps"]
    for key in ("value", "median"):
        metric[key] *= 0.5
    doctored = str(tmp_path / "worse.json")
    with open(doctored, "w", encoding="utf-8") as handle:
        json.dump(worse, handle)
    done = run("--compare", base, doctored)
    assert done.returncode != 0
    assert "REGRESSED" in done.stdout
