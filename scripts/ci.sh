#!/usr/bin/env bash
# Repository CI gate: formatting, lints, and the full test suite.
#
# Run from the workspace root:
#   ./scripts/ci.sh
#
# Every step must pass; the script stops at the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo bench --no-run (bench harnesses compile)"
cargo bench --workspace --no-run

CI_TMP="$(mktemp -d)"
trap 'rm -rf "$CI_TMP"' EXIT

echo "==> linkbench --workload all --smoke (the benchmark builds and runs through its own command)"
# `cargo test --workspace` builds these sources only as colorbars-bench's
# linkbench bin. The benchmark runs them as a package of their own, from
# their own manifest and lockfile, so a stale lockfile or a dependency
# missing from that manifest fails here rather than in a benchmark run.
COLORBARS_RESULTS_DIR="$CI_TMP/linkbench" cargo run --release --locked --quiet \
    --manifest-path crates/bench/src/bin/linkbench/Cargo.toml -- --workload all --smoke

echo "==> scripts/bench.sh --smoke"
./scripts/bench.sh --smoke

echo "==> ext_fec negative test (over-budget burst must be attributed, not silent)"
cargo run --release -p colorbars-bench --bin ext_fec -- --burst-negative

echo "==> ext_highorder --smoke (learned equalizer must beat NN at a functional high order)"
# Redirected so the smoke run cannot clobber the recorded results/ artifact.
# Two pool workers, so the smoke's 20 runs go in parallel on any host.
COLORBARS_RESULTS_DIR="$CI_TMP/results" COLORBARS_SWEEP_THREADS=2 \
    cargo run --release -p colorbars-bench --bin ext_highorder -- --smoke

echo "==> ext_highorder --smoke at one pool worker (pool width cannot change the output)"
COLORBARS_RESULTS_DIR="$CI_TMP/serial" COLORBARS_SWEEP_THREADS=1 \
    cargo run --release -p colorbars-bench --bin ext_highorder -- --smoke
diff -u "$CI_TMP/results/ext_highorder.txt" "$CI_TMP/serial/ext_highorder.txt"
cargo run --release -p colorbars-bench --bin obs-diff -- \
    "$CI_TMP/results/ext_highorder.json" "$CI_TMP/serial/ext_highorder.json"

echo "==> pool-width drill (one counter edited in the one-worker report must fail obs-diff)"
# camera.frames raised by 1 in a copy of the one-worker report. Exit 1 is
# the gate flagging the changed counter; 2 would be a usage or parse error.
python3 - "$CI_TMP/serial/ext_highorder.json" "$CI_TMP/serial_edited.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
report["counters"]["camera.frames"] += 1
json.dump(report, open(sys.argv[2], "w"), indent=2)
PY
status=0
cargo run --release -q -p colorbars-bench --bin obs-diff -- \
    "$CI_TMP/results/ext_highorder.json" "$CI_TMP/serial_edited.json" > /dev/null || status=$?
if [ "$status" -ne 1 ]; then
    echo "ERROR: pool-width gate did not fail on an edited counter (exit $status)" >&2
    exit 1
fi

echo "==> ext_highorder negative test (degenerate preamble must demote, never NaN)"
cargo run --release -p colorbars-bench --bin ext_highorder -- --degenerate-negative

echo "==> examples (each runs to exit 0, writing only under the temp dir)"
for example in quickstart calibration_demo band_visualizer indoor_navigation \
    retail_advertisement; do
    TMPDIR="$CI_TMP" cargo run --release -q --example "$example" > /dev/null
done

echo "==> obs-diff --smoke (rows and counters identical to the committed baseline)"
cargo run --release -p colorbars-bench --bin obs-diff -- --smoke

echo "==> obs-diff negative test (injected SER regression must fail the gate)"
if cargo run --release -p colorbars-bench --bin obs-diff -- --smoke --inject-ser-regression; then
    echo "ERROR: regression gate failed to fail on an injected SER regression" >&2
    exit 1
fi

echo "==> obs-diff latency drill (a doubled gateway p99 must fail the gate)"
# The committed gateway baseline against itself with its p99 doubled. Exit 1
# is the gate flagging the regression; 0 would be a gate that cannot fail,
# and 2 a usage error, so only 1 passes the drill.
status=0
cargo run --release -p colorbars-bench --bin obs-diff -- \
    results/baselines/gateway_smoke.json results/baselines/gateway_smoke.json \
    --inject-latency-regression || status=$?
if [ "$status" -ne 1 ]; then
    echo "ERROR: latency gate did not fail on a doubled p99 (exit $status)" >&2
    exit 1
fi

echo "==> trace round-trip (exported trace.json parses and passes the doctor)"
COLORBARS_OBS_TRACE="$CI_TMP/trace.json" COLORBARS_SWEEP_THREADS=2 \
    cargo run --release -p colorbars-bench --bin obs-diff -- \
    --smoke --write-report "$CI_TMP/smoke_report.json"
cargo run --release -p colorbars-bench --bin doctor -- \
    "$CI_TMP/smoke_report.json" --trace "$CI_TMP/trace.json" --min-tracks 2

echo "==> trace round-trip drill (a trace with one thread track must fail --min-tracks 2)"
# Keep only the first thread_name event in a copy of the trace. Exit 1 is
# the doctor refusing the trace; 2 would be a usage or parse error.
python3 - "$CI_TMP/trace.json" "$CI_TMP/trace_one_track.json" <<'PY'
import json, sys
trace = json.load(open(sys.argv[1]))
named = [e for e in trace["traceEvents"] if e.get("ph") == "M" and e.get("name") == "thread_name"]
if len(named) < 2:
    sys.exit(f"trace has {len(named)} thread tracks; the drill needs at least 2")
trace["traceEvents"] = [e for e in trace["traceEvents"] if e not in named[1:]]
json.dump(trace, open(sys.argv[2], "w"))
PY
status=0
cargo run --release -q -p colorbars-bench --bin doctor -- \
    "$CI_TMP/smoke_report.json" --trace "$CI_TMP/trace_one_track.json" --min-tracks 2 || status=$?
if [ "$status" -ne 1 ]; then
    echo "ERROR: doctor did not refuse a one-track trace (exit $status)" >&2
    exit 1
fi

echo "==> gateway --smoke (4 concurrent streaming sessions, live telemetry plane)"
COLORBARS_OBS_LIVE="$CI_TMP/gateway_live.jsonl" COLORBARS_RESULTS_DIR="$CI_TMP/results" \
    cargo run --release -p colorbars-bench --bin gateway -- --smoke
# The stream is the gateway's two snapshots: mid-run, then final.
lines=$(wc -l < "$CI_TMP/gateway_live.jsonl")
if [ "$lines" -ne 2 ]; then
    echo "ERROR: the gateway's live stream holds $lines lines, want 2" >&2
    exit 1
fi

echo "==> doctor --live (every line parses, no counter falls, fleet review of the last)"
cargo run --release -p colorbars-bench --bin doctor -- \
    --live "$CI_TMP/gateway_live.jsonl" --threshold 0.5

echo "==> doctor --live drill (a session's rx.frames lowered in line 2 must fail the stream)"
# rx.frames is in no loss ledger, so only the line-to-line check can see
# it fall. Exit 1 is the doctor naming the counter; 2 would be a parse
# error.
python3 - "$CI_TMP/gateway_live.jsonl" "$CI_TMP/gateway_live_lowered.jsonl" <<'PY'
import json, sys
first, second = [json.loads(line) for line in open(sys.argv[1])]
def s0_frames(line):
    return next(c for c in line["counters"]
                if c["name"] == "rx.frames" and c["labels"] == {"session": "s0"})
s0_frames(second)["value"] = s0_frames(first)["value"] - 1
with open(sys.argv[2], "w") as out:
    for line in (first, second):
        out.write(json.dumps(line) + "\n")
PY
status=0
cargo run --release -q -p colorbars-bench --bin doctor -- \
    --live "$CI_TMP/gateway_live_lowered.jsonl" --threshold 0.5 > /dev/null || status=$?
if [ "$status" -ne 1 ]; then
    echo "ERROR: doctor --live did not fail a lowered counter (exit $status)" >&2
    exit 1
fi

echo "==> obs-diff gateway gate (link metrics and counters identical, p99 latency within its band)"
cargo run --release -p colorbars-bench --bin obs-diff -- \
    results/baselines/gateway_smoke.json "$CI_TMP/results/gateway.json"

echo "==> flight-recorder round trip (injected failure -> dump -> deterministic replay)"
# gateway --flight corrupts a mid-run stretch of session 0's frames before
# the batch reference decode, so triggers fire and a dump is written; the
# gateway itself exits nonzero if no dump appears. postmortem --replay then
# re-runs every recorded decode from the dump alone and requires
# byte-identical verdicts plus journey/ledger count agreement.
COLORBARS_RESULTS_DIR="$CI_TMP/results" \
    cargo run --release -p colorbars-bench --bin gateway -- --smoke --flight
test -f "$CI_TMP/results/flight/gateway.fdr.json" || {
    echo "ERROR: gateway --flight left no flight dump" >&2
    exit 1
}
cargo run --release -p colorbars-bench --bin postmortem -- \
    "$CI_TMP/results/flight/gateway.fdr.json" --replay

echo "==> postmortem --replay drills (an edited journey verdict must fail the replay)"
# In copies of the dump: one ring rx.data journey's verdict, then one
# trigger's pinned journey record, turned from rs_failed to ok. Exit 1 is
# the replay flagging the mismatch; 2 would be a usage or parse error.
python3 - "$CI_TMP/results/flight/gateway.fdr.json" "$CI_TMP" <<'PY'
import json, sys
dump = json.load(open(sys.argv[1]))
ring = next(j for j in dump["journeys"] if j["stage"] == "rx.data" and j["verdict"] == "rs_failed")
ring["verdict"] = "ok"
json.dump(dump, open(sys.argv[2] + "/flight_ring_edit.json", "w"))
ring["verdict"] = "rs_failed"
pinned = next(t["journey_record"] for t in dump["triggers"]
              if (t.get("journey_record") or {}).get("verdict") == "rs_failed")
pinned["verdict"] = "ok"
json.dump(dump, open(sys.argv[2] + "/flight_pinned_edit.json", "w"))
PY
for edited in flight_ring_edit flight_pinned_edit; do
    status=0
    cargo run --release -q -p colorbars-bench --bin postmortem -- \
        "$CI_TMP/$edited.json" --replay > /dev/null 2>&1 || status=$?
    if [ "$status" -ne 1 ]; then
        echo "ERROR: postmortem --replay did not fail on $edited (exit $status)" >&2
        exit 1
    fi
done

echo "==> postmortem --replay eviction drills (ring losses past the eviction bound must fail)"
# In copies of the dump: two ring rx.data journeys that no trigger pins are
# removed. The gateway's links frame each packet on its own (fec_depth 0),
# so each evicted journey can hide one outcome: with journeys_dropped
# raised by 1 the two missing outcomes exceed the bound (exit 1), and
# raised by 2 they fit it (exit 0).
python3 - "$CI_TMP/results/flight/gateway.fdr.json" "$CI_TMP" <<'PY'
import json, sys
dump = json.load(open(sys.argv[1]))
pinned = {t.get("journey") for t in dump["triggers"]}
unpinned = [j for j in dump["journeys"] if j["stage"] == "rx.data" and j["id"] not in pinned]
assert len(unpinned) >= 2, "the dump holds fewer than two unpinned rx.data journeys"
for j in unpinned[:2]:
    dump["journeys"].remove(j)
for extra, name in [(1, "flight_evicted_over"), (2, "flight_evicted_within")]:
    edited = dict(dump, journeys_dropped=dump["journeys_dropped"] + extra)
    json.dump(edited, open(sys.argv[2] + "/" + name + ".json", "w"))
PY
for edited in flight_evicted_over:1 flight_evicted_within:0; do
    status=0
    cargo run --release -q -p colorbars-bench --bin postmortem -- \
        "$CI_TMP/${edited%:*}.json" --replay > /dev/null 2>&1 || status=$?
    if [ "$status" -ne "${edited#*:}" ]; then
        echo "ERROR: postmortem --replay exited $status on ${edited%:*}, want ${edited#*:}" >&2
        exit 1
    fi
done

echo "==> results gate (deterministic bins reprint their committed results/*.txt and *.json)"
# Every committed transcript must be what this tree prints, and every
# committed run report's rows and counters what it records. gateway is not
# here: its latencies vary from run to run, and the gateway gate above
# holds its deterministic facts.
RESULTS_BINS="raw_grid coded_grid ablations fig1_constellations fig3b_flicker
    fig3c_bandwidth fig6_diversity fig8b_lab_variance ext_constellation_opt
    ext_distance_sweep ext_fec ext_gray_mapping ext_highorder"
for bin in $RESULTS_BINS; do
    COLORBARS_RESULTS_DIR="$CI_TMP/fresh" \
        cargo run --release -q -p colorbars-bench --bin "$bin" > /dev/null
done
# $1: a directory of transcripts and run reports to hold the fresh ones
# against.
results_match() {
    local status=0
    for bin in $RESULTS_BINS; do
        diff -u "$1/$bin.txt" "$CI_TMP/fresh/$bin.txt" || status=1
        cargo run --release -q -p colorbars-bench --bin obs-diff -- \
            "$1/$bin.json" "$CI_TMP/fresh/$bin.json" || status=1
    done
    return "$status"
}
results_match results

echo "==> results gate drill (one edited Fig 9 digit must fail the comparison)"
# Bump the last digit of Fig 9's first 4CSK row in a copy of results/.
cp -r results "$CI_TMP/edited"
awk '/^=== Fig 9 / { fig9 = 1 }
     fig9 && /^4CSK\t/ && !done {
         d = substr($0, length($0))
         $0 = substr($0, 1, length($0) - 1) (d == "9" ? "0" : d + 1)
         done = 1
     }
     { print }' results/raw_grid.txt > "$CI_TMP/edited/raw_grid.txt"
if cmp -s results/raw_grid.txt "$CI_TMP/edited/raw_grid.txt"; then
    echo "ERROR: results gate drill edited nothing" >&2
    exit 1
fi
if results_match "$CI_TMP/edited" > /dev/null; then
    echo "ERROR: results gate failed to fail on an edited Fig 9 cell" >&2
    exit 1
fi

echo "==> results gate JSON drill (one SER raised by 0.0001 must fail obs-diff)"
# raw_grid's first row, in a copy of its run report. Exit 1 is the gate
# flagging the changed fact; 2 would be a usage or parse error.
python3 - results/raw_grid.json "$CI_TMP/edited/raw_grid.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
report["rows"][0]["metrics"]["ser"] += 0.0001
json.dump(report, open(sys.argv[2], "w"), indent=2)
PY
status=0
cargo run --release -q -p colorbars-bench --bin obs-diff -- \
    results/raw_grid.json "$CI_TMP/edited/raw_grid.json" > /dev/null || status=$?
if [ "$status" -ne 1 ]; then
    echo "ERROR: results gate did not fail on a raised SER (exit $status)" >&2
    exit 1
fi

echo "CI passed."
