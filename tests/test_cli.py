"""Tests for the command-line interface."""

from __future__ import annotations

import pathlib

import pytest

from repro.cli import EXPERIMENTS, main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "repro" in out
    assert "allocation strategies" in out


def test_experiments_lists_all(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    for exp_id in ("E1", "E7", "E13"):
        assert exp_id in out
    assert "bench_figure2_query_graph.py" in out
    # the index and the directory agree: every target exists and every
    # bench file is listed
    bench_dir = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
    targets = {target for __, __, target in EXPERIMENTS}
    assert len(targets) == len(EXPERIMENTS)
    assert targets == {p.name for p in bench_dir.glob("bench_*.py")}


def test_demo_runs(capsys):
    code = main(
        [
            "demo",
            "--seed",
            "3",
            "--entities",
            "3",
            "--queries",
            "12",
            "--duration",
            "2.0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "queries answered" in out


def test_query_command_runs(capsys):
    code = main(
        [
            "query",
            "SELECT * FROM exchange-0.trades WHERE price BETWEEN 1 AND 900",
            "--duration",
            "2.0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "query allocated to" in out
    assert "results in" in out


def test_query_syntax_error_exit_code(capsys):
    code = main(["query", "SELEKT nonsense"])
    assert code == 2
    err = capsys.readouterr().err
    assert "syntax error" in err


def test_missing_command_raises_system_exit():
    with pytest.raises(SystemExit):
        main([])


def test_lint_clean_file_exits_zero(capsys, tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text('"""Nothing to flag."""\nX = 1\n')
    assert main(["lint", str(clean)]) == 0
    assert "no findings" in capsys.readouterr().out


def test_lint_finding_exits_nonzero(capsys, tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nT = time.time()\n")
    assert main(["lint", str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out


def test_lint_json_mode(capsys, tmp_path):
    import json

    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\nX = random.random()\n")
    assert main(["lint", "--json", str(dirty)]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["schema"] == "repro-lint/1"
    assert document["counts"] == {"DET002": 1}


def test_lint_repository_tree_is_clean(capsys):
    """Acceptance gate: the shipped tree lints clean."""
    assert main(["lint", "src", "tests", "benchmarks"]) == 0


def test_lint_select_filters_to_prefix(capsys, tmp_path):
    import json

    dirty = tmp_path / "dirty.py"
    dirty.write_text(
        "import random\nimport time\nX = random.random()\nT = time.time()\n"
    )
    assert main(["lint", "--json", "--select", "DET001", str(dirty)]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["counts"] == {"DET001": 1}


def test_lint_ignore_suppresses_family(capsys, tmp_path):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nT = time.time()\n")
    assert main(["lint", "--ignore", "DET", str(dirty)]) == 0
    assert "no findings" in capsys.readouterr().out


def test_lint_unknown_rule_exits_two(capsys, tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("X = 1\n")
    assert main(["lint", "--select", "NOPE999", str(clean)]) == 2
    err = capsys.readouterr().err
    assert "unknown rule" in err


def test_race_smoke_bounded_budget(capsys, tmp_path):
    code = main(
        [
            "race",
            "--smoke",
            "--schedules",
            "4",
            "--scenario",
            "credit",
            "--trace-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "explored 4 schedules" in out
    assert "0 failure(s)" in out


def test_race_replay_missing_trace_exits_two(capsys, tmp_path):
    code = main(["race", "--replay", str(tmp_path / "missing.trace")])
    assert code == 2
    assert "cannot load trace" in capsys.readouterr().err


def test_race_replay_malformed_trace_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.trace"
    bad.write_text("not a trace\n")
    code = main(["race", "--replay", str(bad)])
    assert code == 2
    assert "cannot load trace" in capsys.readouterr().err


def test_race_replay_clean_trace_exits_zero(capsys, tmp_path):
    from repro.analysis.concurrency.schedule import (
        ScheduleTrace,
        format_trace,
    )

    trace = tmp_path / "credit.trace"
    trace.write_text(
        format_trace(
            ScheduleTrace(scenario="credit", strategy="random-walk", seed=23)
        )
    )
    code = main(
        ["race", "--replay", str(trace), "--trace-dir", str(tmp_path)]
    )
    assert code == 0
    assert "replay validated" in capsys.readouterr().out


def test_check_reports_invariants_hold(capsys):
    code = main(
        ["check", "--seed", "1", "--entities", "4", "--queries", "20"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "invariants hold" in out

