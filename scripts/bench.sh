#!/usr/bin/env bash
# Measure the fast capture path and record the performance trajectory.
#
#   ./scripts/bench.sh            # full probe, appends an entry to BENCH_2.json
#   ./scripts/bench.sh --smoke    # seconds-long probe, prints only (CI sanity)
#
# The probe (`perf_probe`) prints only ratios of two times taken in one
# process, so the host's speed cancels as far as it slows both sides
# alike; absolute per-frame and per-run times belong to linkbench
# (README's benchmark section names the one owner of each timed fact).
# Six ratios time an optimized capture component against the reference
# path it replaced, each sample of one side alternating with one of the
# other, so drift reaches both sides alike. Code generation does not
# cancel: a change that compiles either side differently moves its ratio.
# Nor does contention for a resource one side alone is bound by:
# vignette_speedup's profile side stores a frame-sized plane while its
# reference computes, and it spreads most between runs of one build. The
# cause of that spread was not found. The profile side's stores run at one
# of two speeds (about 22 or 40 us per plane) that switch within a single
# process, on either vCPU, with the profiles computed outside the samples
# and one plane shared by both sides; so the spread follows neither the
# vCPU, the plane's pages, nor the probe's own allocations, and
# alternating samples cannot cancel it.
#
#   integrate_speedup      LedEmitter::integrate (prefix sums) against
#                          integrate_reference (walking the slots) over the
#                          733 windows the Fig 3(b) observer panel slides
#                          over a 1 s schedule: 40–100 ms critical
#                          durations, 120–301 slots each at 3 kHz
#   encode_speedup         SrgbQuantizer (a rounded bucket, one threshold
#                          load and one comparison per channel) against
#                          powf encode, over 100 000 pixels
#   vignette_speedup       a Nexus 5 frame's vignetting factors from row and
#                          column profiles computed once (as the rig caches
#                          them) against the per-pixel radial factor, both
#                          written into one shared plane
#   normals_speedup        lane-kernel Box–Muller against the libm
#                          transform, one Nexus 5 frame's normals
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
# the camera's own spans over consecutive Nexus 5 captures, and their sum,
# capture_closure. The probe exits nonzero, and so does this script, when
# the closure is outside [0.95, 1.05]: capture time the stage spans do not
# account for. Full runs append `{timestamp, git_rev, probe}` (plus `note`
# when BENCH_NOTE is set) to BENCH_2.json so the trajectory across commits
# stays reviewable.
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
