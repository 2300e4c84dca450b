#!/usr/bin/env python3
"""The repo's benchmark: one command, five workloads, every metric named.

    python perf/run.py                      # all workloads, end-to-end metrics
    python perf/run.py --trace              # the traced pass: per-layer metrics
    python perf/run.py --workload replay --seed 92
    python perf/run.py --compare A.json B.json

With ``--workload`` it runs that workload in this process and prints, as
the last line of standard output, one JSON object ``{"correct",
"attempted", "failed", "metrics"}`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Without it,
every workload runs in a fresh subprocess of its own and the results
are gathered into ``perf/out/``.  A failed correctness check exits
non-zero.  See ``perf/README.md`` for what is measured and why.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(PERF_DIR)
OUT_DIR = os.path.join(PERF_DIR, "out")
DEFAULT_SEED = 91
# Runnable and reported, but not declared in BENCHMARK.json, because no
# bound can gate them on this box (README, "Where this departs"):
# dist2 keeps three processes busy on two shared cores and its
# throughput follows the host; squeeze sheds results by design and its
# throughput depends on where the data makes the channels deadlock.
UNGATED = ("dist2", "squeeze")


def load_spec() -> dict:
    """``BENCHMARK.json``: the declared workloads, metrics and bounds."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_one(args) -> int:
    """Run ``args.workload`` here; print its metrics; return exit code."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes order sets; pin them so two runs plan alike.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)

    try:
        import layers
        import workloads
    except ModuleNotFoundError as error:
        print(f"perf/run.py: nothing to measure under src/: {error}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    tracer = layers.Tracer(OUT_DIR) if args.trace else None
    outcome = workloads.run_workload(
        workload,
        seed=args.seed,
        seconds=args.seconds,
        smoke=args.smoke,
        corrupt=args.corrupt_reference,
        tracer=tracer,
    )
    detail = outcome.metrics
    if tracer is not None:
        values = layers.compute(
            tracer,
            untraced_wall_s=min(s.wall_s for s in outcome.main.samples),
            stamps=outcome.stamps,
            coordinator=outcome.main.coordinator,
            worker_cpu_s=outcome.main.worker_cpu_s,
        )
        detail = {
            name: {"value": values[name], "unit": unit}
            for name, unit, __ in layers.LAYER_METRICS
        }
        trace_path = tracer.export(workload.name)
        print(f"spans: {os.path.relpath(trace_path, REPO_ROOT)}")

    print(f"workload {workload.name}  seed {args.seed}  counts {outcome.counts}")
    for name, entry in detail.items():
        extra = ""
        if "median" in entry:
            extra = (
                f"   (best of {entry['n']}; median {entry['median']:.6g}, "
                f"iqr {entry['iqr']:.3g})"
            )
        print(f"  {name:<42} {entry['value']:>14.6g} {entry['unit']}{extra}")
    for error in outcome.errors:
        print(f"  CHECK FAILED: {error}")

    record = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": detail,
    }
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump({**record, "counts": outcome.counts}, handle)
    record["metrics"] = {
        name: {"value": entry["value"], "unit": entry["unit"]}
        for name, entry in detail.items()
    }
    print(json.dumps(record))
    return 0 if outcome.correct else 1


# ----------------------------------------------------------------------
# Every workload, each in a fresh subprocess
# ----------------------------------------------------------------------
def run_all(args) -> int:
    spec = load_spec()
    os.makedirs(OUT_DIR, exist_ok=True)
    gathered = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "workloads": {},
    }
    failed = False
    for name in [w["name"] for w in spec["workloads"]] + list(UNGATED):
        detail_path = os.path.join(OUT_DIR, f".detail-{name}-{os.getpid()}.json")
        command = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload",
            name,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
            "--detail",
            detail_path,
        ]
        if args.smoke:
            command.append("--smoke")
        if args.corrupt_reference:
            command.append("--corrupt-reference")
        done = subprocess.run(
            command,
            env=dict(os.environ, PYTHONHASHSEED="0"),
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = done.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n\n")
        sys.stdout.flush()
        if done.returncode != 0:
            failed = True
        if os.path.exists(detail_path):
            with open(detail_path, encoding="utf-8") as handle:
                gathered["workloads"][name] = json.load(handle)
            os.remove(detail_path)
        else:
            print(f"workload {name}: no result (exit {done.returncode})")
            failed = True
    out_path = args.out or os.path.join(
        OUT_DIR,
        f"{'layers' if args.trace else 'results'}-seed{args.seed}.json",
    )
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(gathered, handle, indent=1)
    print(f"results: {os.path.relpath(out_path)}")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# Comparing two result files
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """Apply each end-to-end metric's bound to two result files.

    B is the candidate, A the base.  A pairing is REGRESSED when B is
    worse than A by more than the bound, and UNRESOLVED when it is not
    but the repeats inside either run were themselves further apart
    (IQR / median) than the bound — then "no regression" is not shown.
    """
    spec = load_spec()
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)["workloads"]
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)["workloads"]
    print(
        f"{'workload':<10}{'metric':<18}{'A':>12}{'B':>12}"
        f"{'delta':>9}{'bound':>8}  verdict"
    )
    breaches = 0
    gated = [w["name"] for w in spec["workloads"]]
    for name in gated + [n for n in UNGATED if n in a and n in b]:
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            try:
                ma, mb = a[name]["metrics"][key], b[name]["metrics"][key]
            except KeyError:
                print(f"{name:<10}{key:<18}{'missing':>12}")
                breaches += 1
                continue
            va, vb = ma["value"], mb["value"]
            worse = (va - vb) if metric["better"] == "higher" else (vb - va)
            delta = worse / va if va else 0.0
            noisy = any(
                m.get("median") and m.get("iqr", 0.0) / m["median"] > bound
                for m in (ma, mb)
            )
            if delta > bound:
                verdict = "REGRESSED"
                breaches += name in gated
            elif noisy:
                verdict = "UNRESOLVED"
            else:
                verdict = "OK"
            print(
                f"{name:<10}{key:<18}{va:>12.5g}{vb:>12.5g}"
                f"{100 * delta:>+8.1f}%{100 * bound:>7.1f}%  {verdict}"
                + ("" if name in gated else " (ungated)")
            )
    for path, side in ((path_a, a), (path_b, b)):
        for name, record in side.items():
            if not record["correct"]:
                print(f"{path}: workload {name} failed its correctness check")
                breaches += 1
    return 1 if breaches else 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in-process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measuring budget per workload (default: run_seconds)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1: the traced pass, per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="1/10-length traces, one repeat"
    )
    parser.add_argument("--out", help="where to gather the results (all mode)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument(
        "--corrupt-reference", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.workload:
        declared = {w["name"] for w in load_spec()["workloads"]}
        if args.workload not in declared | set(UNGATED):
            parser.error(f"unknown workload {args.workload!r}")
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
