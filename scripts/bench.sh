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
# point. Two ratios time both sides alternately in one process, so host
# drift cancels in them:
#
#   row_normals_speedup    one Nexus 5 frame's per-row noise streams drawn
#                          eight rows per lane step (fill_row_normals)
#                          against one row after another (fill_normals)
#   row_integrate_speedup  one Nexus 5 frame's row windows with each row's
#                          boundary slots walked on from the previous row's
#                          (LedEmitter::row_means) against a binary search
#                          per row (LedEmitter::mean)
#
# It also reports each capture stage's share of `camera.capture_frame`
# (share_rows_integrate, share_blur_rows, share_mosaic, share_encode) from
# the camera's own spans over a few Nexus 5 captures, and their sum,
# capture_closure. The probe exits nonzero, and so does this script, when
# the closure is outside [0.95, 1.05]: capture time the stage spans do not
# account for. Full runs append
# `{timestamp, git_rev, probe}` (plus `note` when BENCH_NOTE is set) to
# BENCH_2.json so the speedup trajectory across commits stays reviewable.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=""
if [[ "${1:-}" == "--smoke" ]]; then
    MODE="--smoke"
fi

cargo build --release -p colorbars-bench --bin perf_probe
# Print the probe's report even when it fails its closure gate, so the
# stage shares that broke it show, then fail with its status.
STATUS=0
PROBE=$(./target/release/perf_probe ${MODE}) || STATUS=$?
echo "${PROBE}"
if [[ "${STATUS}" -ne 0 ]]; then
    exit "${STATUS}"
fi

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
