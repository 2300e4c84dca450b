#!/usr/bin/env bash
# Runs the benchmark twice on the same code and seed, then applies the
# benchmark's own bounds to the two result files.  Exit 0 means two
# sets of runs of the same code agree within the bounds on every
# workload x end-to-end metric.
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-91}"
mkdir -p perf/out
python3 perf/run.py --seed "$seed" --out "perf/out/selfcheck-A-seed$seed.json"
python3 perf/run.py --seed "$seed" --out "perf/out/selfcheck-B-seed$seed.json"
python3 perf/run.py --compare \
    "perf/out/selfcheck-A-seed$seed.json" "perf/out/selfcheck-B-seed$seed.json"
