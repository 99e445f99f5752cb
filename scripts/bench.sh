#!/usr/bin/env bash
# Measure the fast capture path and record the performance trajectory.
#
#   ./scripts/bench.sh            # full probe, appends an entry to BENCH_2.json
#   ./scripts/bench.sh --smoke    # seconds-long probe, prints only (CI sanity)
#
# The probe (`perf_probe`) times each optimized component against its
# retained reference path — prefix-sum vs walking emitter integration,
# threshold-table vs powf gamma encode, profile vs per-pixel vignetting,
# lane-kernel vs libm Box–Muller normals, steady-state frame-pool
# pressure — plus one full frame capture and one full sweep operating
# point. Full runs append
# `{timestamp, git_rev, probe}` (plus `note` when BENCH_NOTE is set) to
# BENCH_2.json so the speedup trajectory across commits stays reviewable.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=""
if [[ "${1:-}" == "--smoke" ]]; then
    MODE="--smoke"
fi

cargo build --release -p colorbars-bench --bin perf_probe
PROBE=$(./target/release/perf_probe ${MODE})
echo "${PROBE}"

if [[ -n "${MODE}" ]]; then
    echo "smoke mode: not recording to BENCH_2.json"
    exit 0
fi

REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
STAMP=$(date -u +%Y-%m-%dT%H:%M:%SZ)
python3 - "${PROBE}" "${REV}" "${STAMP}" "${BENCH_NOTE:-}" <<'PY'
import json, os, sys

probe, rev, stamp, note = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4]
path = "BENCH_2.json"
history = []
if os.path.exists(path):
    with open(path) as f:
        history = json.load(f)
entry = {"timestamp": stamp, "git_rev": rev, "probe": probe}
if note:
    entry["note"] = note
history.append(entry)
with open(path, "w") as f:
    json.dump(history, f, indent=2)
    f.write("\n")
print(f"recorded entry {len(history)} in {path}")
PY
