#!/bin/sh
# ci.sh — the full verification pipeline, runnable from a clean checkout:
# formatting, go vet, the project's static-analysis suite (simdhtlint), and
# the test suite with and without the race detector.
set -eu

cd "$(dirname "$0")/.."
GO=${GO:-go}

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet"
$GO vet ./...

# The static-analysis suite runs in -json mode against the committed
# count baseline (any analyzer exceeding its baseline count fails); the
# machine-readable report is archived in the scratch dir for inspection.
echo "==> simdhtlint (vs lint_baseline.json)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
$GO run ./cmd/simdhtlint -C . -json -baseline lint_baseline.json > "$tmp/lint.json"

echo "==> go test"
$GO test ./...

echo "==> go test -race"
$GO test -race ./...

# CLI smoke: run both binaries end-to-end with -trace/-metrics and diff the
# artifacts against the committed goldens, so the flag plumbing (not just the
# library path the Go tests exercise) is pinned byte-for-byte.
echo "==> CLI smoke (-trace/-metrics vs goldens)"
$GO run ./cmd/simdhtbench -queries 400 -seed 1 \
    -trace "$tmp/fig7a.json" -metrics "$tmp/fig7a.csv" fig7a >/dev/null
diff "$tmp/fig7a.json" internal/experiments/testdata/obs_fig7a_trace.golden.json
diff "$tmp/fig7a.csv" internal/experiments/testdata/obs_fig7a_metrics.golden.csv
$GO run ./cmd/kvsbench -items 2000 -workers 2 -clients 2 -requests 20 \
    -batches 8 -seed 7 \
    -trace "$tmp/fig11a.json" -metrics "$tmp/fig11a.csv" fig11a >/dev/null
diff "$tmp/fig11a.json" internal/experiments/testdata/obs_fig11a_trace.golden.json
diff "$tmp/fig11a.csv" internal/experiments/testdata/obs_fig11a_metrics.golden.csv

# Profiler smoke: two identical -profile cycles runs must produce
# byte-identical folded cycle accounts on stdout, and obsdiff must report
# zero delta between their run manifests (wall-clock fields are ignored by
# design). Both manifests and folded stacks stay in the scratch dir for
# inspection alongside lint.json.
echo "==> profiler smoke (-profile cycles + obsdiff)"
run_prof() {
    $GO run ./cmd/simdhtbench -queries 400 -seed 1 -parallel "$1" \
        -profile cycles -manifest "$2" fig7a > "$3" 2>/dev/null
}
run_prof 1 "$tmp/run1.json" "$tmp/folded1.txt"
run_prof 1 "$tmp/run2.json" "$tmp/folded2.txt"
run_prof 4 "$tmp/run4.json" "$tmp/folded4.txt"
diff "$tmp/folded1.txt" "$tmp/folded2.txt"
diff "$tmp/folded1.txt" "$tmp/folded4.txt" # cycle account is -parallel invariant
$GO run ./cmd/obsdiff "$tmp/run1.json" "$tmp/run2.json" >/dev/null

# Fault-injection smoke: the fault-sweep experiment under an armed plan must
# reproduce its goldens byte-for-byte — table, metrics CSV and trace JSON —
# exactly as the deterministic-faults golden test pins them.
echo "==> CLI smoke (fault-sweep vs goldens)"
$GO run ./cmd/kvsbench -items 2000 -workers 2 -clients 2 -requests 20 \
    -batches 8 -seed 7 \
    -faults 'drop=0.15,crash=20µs:10µs,slow=4x@15µs:5µs,pressure=50@10µs,timeout=10µs,retries=1,backoff=5µs' \
    -trace "$tmp/faults.json" -metrics "$tmp/faults.csv" \
    fault-sweep > "$tmp/faults.txt"
sed '$d' "$tmp/faults.txt" > "$tmp/faults.table" # emit() ends with one blank line
diff "$tmp/faults.table" internal/experiments/testdata/fault_sweep_table.golden.txt
diff "$tmp/faults.json" internal/experiments/testdata/fault_sweep_trace.golden.json
diff "$tmp/faults.csv" internal/experiments/testdata/fault_sweep_metrics.golden.csv

# Fleet smoke: the fleet-scale replication study (replicated reads, quorum
# writes, failover, fault-driven rebalance storms) must reproduce its goldens
# AND self-diff byte-for-byte at two different -parallel counts — the
# determinism contract the fleet golden test pins, re-checked through the CLI.
echo "==> CLI smoke (fleet vs goldens, -parallel 1 vs 4)"
run_fleet() {
    $GO run ./cmd/kvsbench -fleet -items 2000 -workers 2 -clients 2 \
        -requests 60 -batches 8 -seed 7 -fleet-sizes 3,5 -arrival-rate 200000 \
        -faults 'drop=0.05,crash=100µs:30µs,timeout=10µs,retries=2,backoff=5µs' \
        -parallel "$1" -trace "$2" -metrics "$3" > "$4"
}
run_fleet 1 "$tmp/fleet1.json" "$tmp/fleet1.csv" "$tmp/fleet1.txt"
run_fleet 4 "$tmp/fleet4.json" "$tmp/fleet4.csv" "$tmp/fleet4.txt"
diff "$tmp/fleet1.txt" "$tmp/fleet4.txt"
diff "$tmp/fleet1.json" "$tmp/fleet4.json"
diff "$tmp/fleet1.csv" "$tmp/fleet4.csv"
sed '$d' "$tmp/fleet1.txt" > "$tmp/fleet1.table" # emit() ends with one blank line
diff "$tmp/fleet1.table" internal/experiments/testdata/fleet_study_table.golden.txt
diff "$tmp/fleet1.json" internal/experiments/testdata/fleet_study_trace.golden.json
diff "$tmp/fleet1.csv" internal/experiments/testdata/fleet_study_metrics.golden.csv

# Overload smoke: the metastable-overload study (admission control, queue
# deadlines, retry budgets, hedged reads vs the controls-off collapse) must
# reproduce its goldens AND self-diff byte-for-byte at two -parallel counts.
echo "==> CLI smoke (overload vs goldens, -parallel 1 vs 4)"
run_overload() {
    $GO run ./cmd/kvsbench -overload -items 2000 -workers 2 -clients 4 \
        -requests 400 -batches 8 -seed 7 -overload-servers 2 \
        -overload-mults 0.5,1,1.5,2 \
        -parallel "$1" -trace "$2" -metrics "$3" > "$4"
}
run_overload 1 "$tmp/overload1.json" "$tmp/overload1.csv" "$tmp/overload1.txt"
run_overload 4 "$tmp/overload4.json" "$tmp/overload4.csv" "$tmp/overload4.txt"
diff "$tmp/overload1.txt" "$tmp/overload4.txt"
diff "$tmp/overload1.json" "$tmp/overload4.json"
diff "$tmp/overload1.csv" "$tmp/overload4.csv"
sed '$d' "$tmp/overload1.txt" > "$tmp/overload1.table" # emit() ends with one blank line
diff "$tmp/overload1.table" internal/experiments/testdata/overload_study_table.golden.txt
diff "$tmp/overload1.json" internal/experiments/testdata/overload_study_trace.golden.json
diff "$tmp/overload1.csv" internal/experiments/testdata/overload_study_metrics.golden.csv

# Manifest diff through obsdiff: the fleet run at one sweep worker vs four
# must produce a zero-delta run manifest (config, seeds, artifact digests,
# metric snapshot; wall-clock fields are ignored by design).
echo "==> fleet manifest smoke (obsdiff, -parallel 1 vs 4)"
run_fleet_manifest() {
    $GO run ./cmd/kvsbench -fleet -items 2000 -workers 2 -clients 2 \
        -requests 60 -batches 8 -seed 7 -fleet-sizes 3,5 -arrival-rate 200000 \
        -faults 'drop=0.05,crash=100µs:30µs,timeout=10µs,retries=2,backoff=5µs' \
        -parallel "$1" -manifest "$2" > /dev/null 2>&1
}
run_fleet_manifest 1 "$tmp/fleetm1.json"
run_fleet_manifest 4 "$tmp/fleetm4.json"
$GO run ./cmd/obsdiff "$tmp/fleetm1.json" "$tmp/fleetm4.json" >/dev/null

# Sim-speed smoke: -simspeed must print the simulator-throughput table to
# stderr while leaving stdout (the deterministic tables) untouched by any
# wall-clock value, and benchdiff must accept a snapshot against itself.
echo "==> sim-speed smoke (-simspeed + benchdiff)"
$GO run ./cmd/simdhtbench -queries 200 -seed 1 -simspeed run \
    > "$tmp/simspeed.out" 2> "$tmp/simspeed.err"
grep -q "Sim Mlookups/s" "$tmp/simspeed.err"
if grep -q "Sim Mlookups/s" "$tmp/simspeed.out"; then
    echo "ci.sh: sim-speed table leaked into stdout" >&2
    exit 1
fi
scripts/benchdiff.sh BENCH_baseline.json BENCH_baseline.json >/dev/null

# Host-fingerprint smoke: benchdiff must accept two snapshots with the same
# fingerprint and refuse (exit 2) a copy of the baseline carrying a foreign
# one.
echo "==> benchdiff host-fingerprint smoke"
plant_host() {
    awk -v h="$1" 'NR == 3 { printf "  \"host\": {\"cpu_model\":\"%s\",\"nproc\":1,\"go_version\":\"go0\"},\n", h } { print }' \
        BENCH_baseline.json > "$2"
}
plant_host ci-host "$tmp/bench_host.json"
plant_host foreign-host "$tmp/bench_foreign.json"
scripts/benchdiff.sh "$tmp/bench_host.json" "$tmp/bench_host.json" >/dev/null
status=0
scripts/benchdiff.sh "$tmp/bench_host.json" "$tmp/bench_foreign.json" \
    >/dev/null 2> "$tmp/benchdiff.err" || status=$?
if [ "$status" -ne 2 ] || ! grep -q "different hosts" "$tmp/benchdiff.err"; then
    echo "ci.sh: benchdiff compared snapshots from different hosts (exit $status, want 2)" >&2
    exit 1
fi

# Short fuzz of the delivery and Multi-Get paths (seed corpora replay plus a
# few seconds of mutation).
echo "==> fuzz smoke"
make fuzz-smoke FUZZTIME=5s

echo "==> ci.sh: all checks passed"
