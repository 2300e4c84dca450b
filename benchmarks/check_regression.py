"""Compare BENCH_*.json results against the checked-in baselines.

Usage (run after the benchmark suite has written its JSON files)::

    python benchmarks/check_regression.py [--bench-dir DIR] [--baselines FILE]

``benchmarks/baselines.json`` lists, per bench name, the *gated*
metrics (the run fails when a current value drops more than
``tolerance`` — default 20% — below its baseline) and the *info*
metrics (reported but never failing).  Gated metrics are deliberately
relative ones — a speedup, a headroom — because absolute tuples/s
varies wildly across CI runner hardware while a ratio taken within one
run does not; the absolute numbers ride along as info so drifts stay
visible in the nightly log.

Exit status: 0 when every gate holds, 1 on any regression or missing
bench file/metric.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def check(bench_dir: Path, baselines_path: Path) -> int:
    """Validate every gate; returns the process exit code."""
    baselines = json.loads(baselines_path.read_text(encoding="utf-8"))
    tolerance = float(baselines.get("tolerance", 0.20))
    failures: list[str] = []

    for name, spec in baselines["benches"].items():
        path = bench_dir / f"BENCH_{name}.json"
        if not path.is_file():
            failures.append(f"{name}: missing {path}")
            continue
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            failures.append(f"{name}: {path.name} is not valid JSON ({exc})")
            continue
        metrics = (
            payload.get("metrics") if isinstance(payload, dict) else None
        )
        if not isinstance(metrics, dict):
            failures.append(
                f"{name}: {path.name} has no 'metrics' object — "
                "the bench did not complete or wrote a malformed result"
            )
            continue
        for metric, base in spec.get("gate", {}).items():
            current = metrics.get(metric)
            if current is None:
                failures.append(f"{name}.{metric}: missing from {path.name}")
                continue
            floor = base * (1.0 - tolerance)
            status = "OK" if current >= floor else "REGRESSED"
            print(
                f"[gate] {name}.{metric}: current {current:.3f} vs "
                f"baseline {base:.3f} (floor {floor:.3f}) {status}"
            )
            if current < floor:
                failures.append(
                    f"{name}.{metric}: {current:.3f} < floor {floor:.3f} "
                    f"(baseline {base:.3f}, tolerance {tolerance:.0%})"
                )
        for metric, base in spec.get("info", {}).items():
            current = metrics.get(metric)
            if current is None:
                continue
            delta = (current - base) / base if base else 0.0
            digits = 0 if abs(base) >= 100 else 2  # ratios ride along too
            print(
                f"[info] {name}.{metric}: current {current:,.{digits}f} vs "
                f"baseline {base:,.{digits}f} ({delta:+.1%})"
            )

    if failures:
        print("\nREGRESSIONS:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nall benchmark gates hold")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench-dir",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="directory holding the BENCH_*.json files (default: repo root)",
    )
    parser.add_argument(
        "--baselines",
        type=Path,
        default=Path(__file__).resolve().parent / "baselines.json",
        help="baselines file (default: benchmarks/baselines.json)",
    )
    args = parser.parse_args(argv)
    return check(args.bench_dir, args.baselines)


if __name__ == "__main__":
    raise SystemExit(main())
