"""Shared configuration for the benchmark harness.

Every bench prints the table/series of the paper artifact it
reproduces.  pytest captures stdout at the fd level, so the tables are
buffered by :mod:`repro.bench.reporting` and flushed here, after the
run, as a terminal summary section — they therefore always appear in
``pytest benchmarks/`` output.
"""

from __future__ import annotations

from repro.bench.reporting import drain_emitted


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = drain_emitted()
    if not lines:
        return
    terminalreporter.write_sep("=", "reproduced paper tables & figures")
    for line in lines:
        terminalreporter.write_line(line)
