"""Tests for bench reporting helpers."""

from __future__ import annotations

import pytest

from repro.bench.reporting import Table, format_series


def test_table_renders_aligned_columns():
    table = Table(["name", "value"])
    table.add_row(["alpha", 1.5])
    table.add_row(["b", 20000.0])
    rendered = table.render()
    lines = rendered.splitlines()
    assert lines[0].startswith("name")
    assert "alpha" in lines[2]
    assert "20,000" in lines[3]


def test_table_rejects_wrong_row_length():
    table = Table(["a", "b"])
    with pytest.raises(ValueError):
        table.add_row([1])


def test_table_float_formats():
    assert Table._fmt(0.0) == "0"
    assert Table._fmt(0.1234567) == "0.1235"
    assert Table._fmt(3.14159) == "3.14"
    assert Table._fmt(1234567.0) == "1,234,567"
    assert Table._fmt("text") == "text"


def test_empty_table_renders_header():
    table = Table(["only"])
    rendered = table.render()
    assert "only" in rendered


def test_format_series():
    line = format_series("latency", [1, 2], [0.5, 0.25], unit="ms")
    assert line == "latency [ms]: (1, 0.5000) (2, 0.2500)"


def test_format_series_no_unit():
    assert format_series("x", [1], [2]) == "x: (1, 2)"
