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

echo "==> scripts/bench.sh --smoke"
./scripts/bench.sh --smoke

echo "==> ext_multi_tx --smoke (multi-transmitter scene end to end)"
# Redirected so the smoke run cannot clobber the recorded results/ artifact.
# Two pool workers, so the smoke's two runs go in parallel on any host.
COLORBARS_RESULTS_DIR="$CI_TMP/results" COLORBARS_SWEEP_THREADS=2 \
    cargo run --release -p colorbars-bench --bin ext_multi_tx -- --smoke

echo "==> ext_multi_tx --smoke at one pool worker (pool width cannot change the output)"
COLORBARS_RESULTS_DIR="$CI_TMP/serial" COLORBARS_SWEEP_THREADS=1 \
    cargo run --release -p colorbars-bench --bin ext_multi_tx -- --smoke
diff -u "$CI_TMP/results/ext_multi_tx.txt" "$CI_TMP/serial/ext_multi_tx.txt"
python3 - "$CI_TMP/results/ext_multi_tx.json" "$CI_TMP/serial/ext_multi_tx.json" <<'PY'
import json, sys
parallel, serial = (json.load(open(path))["rows"] for path in sys.argv[1:])
if parallel != serial:
    sys.exit("ERROR: ext_multi_tx rows depend on the sweep pool's width")
PY

echo "==> ext_fec --smoke (cross-packet interleaved RS end to end)"
COLORBARS_RESULTS_DIR="$CI_TMP/results" \
    cargo run --release -p colorbars-bench --bin ext_fec -- --smoke

echo "==> obs-diff ext_fec gate (interleave goodput vs committed baseline)"
cargo run --release -p colorbars-bench --bin obs-diff -- \
    results/baselines/ext_fec_smoke.json "$CI_TMP/results/ext_fec.json"

echo "==> ext_fec negative test (over-budget burst must be attributed, not silent)"
cargo run --release -p colorbars-bench --bin ext_fec -- --burst-negative

echo "==> ext_highorder --smoke (learned equalizer must beat NN at a functional high order)"
COLORBARS_RESULTS_DIR="$CI_TMP/results" \
    cargo run --release -p colorbars-bench --bin ext_highorder -- --smoke

echo "==> obs-diff ext_highorder gate (equalizer SER vs committed baseline)"
cargo run --release -p colorbars-bench --bin obs-diff -- \
    results/baselines/ext_highorder_smoke.json "$CI_TMP/results/ext_highorder.json"

echo "==> ext_highorder negative test (degenerate preamble must demote, never NaN)"
cargo run --release -p colorbars-bench --bin ext_highorder -- --degenerate-negative

echo "==> obs-diff --smoke (regression gate vs committed baseline)"
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

echo "==> gateway --smoke (4 concurrent streaming sessions, live telemetry plane)"
COLORBARS_OBS_LIVE="$CI_TMP/gateway_live.jsonl" COLORBARS_OBS_LIVE_INTERVAL_MS=200 \
COLORBARS_RESULTS_DIR="$CI_TMP/results" \
    cargo run --release -p colorbars-bench --bin gateway -- \
    --smoke --expo "$CI_TMP/gateway_expo"

echo "==> gateway --validate (exposition scrapes re-parse; counters monotone)"
cargo run --release -p colorbars-bench --bin gateway -- \
    --validate "$CI_TMP/gateway_expo.1.prom" "$CI_TMP/gateway_expo.2.prom"

echo "==> doctor --live (fleet review of the gateway's snapshot stream)"
cargo run --release -p colorbars-bench --bin doctor -- \
    --live "$CI_TMP/gateway_live.jsonl" --threshold 0.5

echo "==> obs-diff gateway gate (p99 latency + link metrics vs committed baseline)"
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

echo "==> results gate (deterministic bins reprint their committed results/*.txt)"
# Every committed transcript must be what this tree prints. gateway is not
# gated: its latencies vary from run to run.
RESULTS_BINS="raw_grid coded_grid ablations fig1_constellations fig3b_flicker
    fig3c_bandwidth fig6_diversity fig8b_lab_variance ext_constellation_opt
    ext_distance_sweep ext_fec ext_gray_mapping ext_highorder ext_multi_tx"
for bin in $RESULTS_BINS; do
    COLORBARS_RESULTS_DIR="$CI_TMP/fresh" \
        cargo run --release -q -p colorbars-bench --bin "$bin" > /dev/null
done
# $1: a directory of transcripts to hold the fresh ones against.
results_match() {
    local status=0
    for bin in $RESULTS_BINS; do
        diff -u "$1/$bin.txt" "$CI_TMP/fresh/$bin.txt" || status=1
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

echo "CI passed."
