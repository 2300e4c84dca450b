"""Plain-text tables and series for benchmark output.

Every experiment prints the rows/series the corresponding paper artifact
would contain, so EXPERIMENTS.md can quote bench output verbatim.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

RESULTS_FILE_ENV = "REPRO_BENCH_RESULTS"

# Bench emissions are buffered so the benchmarks' conftest can flush
# them after pytest's capture ends (pytest captures at the fd level, so
# even sys.__stdout__ writes would be swallowed mid-run).
_BUFFER: list[str] = []


def drain_emitted() -> list[str]:
    """Return and clear all buffered bench output lines."""
    lines = list(_BUFFER)
    _BUFFER.clear()
    return lines


def emit(text: str) -> None:
    """Record bench output.

    Lines are printed (visible under ``-s``), buffered for the bench
    conftest's terminal-summary flush, and appended to the file named by
    the ``REPRO_BENCH_RESULTS`` env var when set.
    """
    print(text)
    _BUFFER.append(text)
    path = os.environ.get(RESULTS_FILE_ENV)
    if path:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(text + "\n")


def print_header(title: str, *, width: int = 72) -> None:
    """Print a boxed experiment title."""
    emit("")
    emit("=" * width)
    emit(title)
    emit("=" * width)


@dataclass
class Table:
    """A fixed-column text table.

    >>> t = Table(["strategy", "cut"])
    >>> t.add_row(["partition", 3.0])
    >>> print(t.render())  # doctest: +SKIP
    """

    columns: list[str]
    rows: list[list[object]] = field(default_factory=list)

    def add_row(self, values: list[object]) -> None:
        """Append one row (must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(list(values))

    @staticmethod
    def _fmt(value: object) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000:
                return f"{value:,.0f}"
            if abs(value) >= 1:
                return f"{value:.2f}"
            return f"{value:.4f}"
        return str(value)

    def render(self) -> str:
        """The table as an aligned text block."""
        cells = [[self._fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in cells))
            if cells
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [
            "  ".join(c.ljust(w) for c, w in zip(self.columns, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def show(self) -> None:
        """Print the rendered table (survives pytest capture)."""
        emit(self.render())


def format_series(
    name: str, xs: list[object], ys: list[object], *, unit: str = ""
) -> str:
    """One figure series as ``name: (x, y) (x, y) ...``."""
    pairs = " ".join(
        f"({Table._fmt(x)}, {Table._fmt(y)})" for x, y in zip(xs, ys)
    )
    suffix = f" [{unit}]" if unit else ""
    return f"{name}{suffix}: {pairs}"
