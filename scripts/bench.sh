#!/bin/sh
# bench.sh — run the root benchmark suite and snapshot the results,
# establishing the repo's performance trajectory.
#
# Emits two artifacts (default basename: BENCH_baseline at the repo root):
#
#   <out>.txt  — raw `go test -bench` output, the exact format benchstat
#                consumes: `benchstat BENCH_baseline.txt new.txt`
#   <out>.json — the same results parsed into JSON; each entry keeps the
#                raw benchmark line so the benchstat input can always be
#                recovered from the committed baseline. Benchmarks run with
#                -benchmem, so entries carry bytes_per_op and allocs_per_op
#                (host memory, printed but not gated by benchdiff.sh). A
#                "host" field
#                fingerprints the machine (CPU model, nproc, go version);
#                benchdiff.sh refuses to compare snapshots whose
#                fingerprints differ.
#
# Usage: scripts/bench.sh [out-basename]
# Env:   GO=go COUNT=1 BENCHTIME=1x
#
# The default -benchtime 1x favors a fast, deterministic-workload pass (the
# simulator is seeded, so each iteration does identical work); raise COUNT
# and BENCHTIME for statistically meaningful comparisons.
set -eu

cd "$(dirname "$0")/.."
GO=${GO:-go}
OUT=${1:-BENCH_baseline}
COUNT=${COUNT:-1}
BENCHTIME=${BENCHTIME:-1x}

$GO test -run '^$' -bench . -benchmem -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$OUT.txt"

cpu=$(sed -n 's/^model name[[:space:]]*:[[:space:]]*//p' /proc/cpuinfo 2>/dev/null | head -n 1)
[ -n "$cpu" ] || cpu=$(sysctl -n machdep.cpu.brand_string 2>/dev/null || echo unknown)
ncpu=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
gover=$($GO version | sed 's/^go version //')

awk -v cpu="$cpu" -v ncpu="$ncpu" -v gover="$gover" '
BEGIN {
    gsub(/["\\]/, "", cpu)
    printf "{\n  \"format\": \"go test -bench\",\n"
    printf "  \"host\": {\"cpu_model\":\"%s\",\"nproc\":%d,\"go_version\":\"%s\"},\n", cpu, ncpu, gover
    printf "  \"benchmarks\": [\n"
}
/^Benchmark/ && /ns\/op/ {
    line = $0
    gsub(/\\/, "\\\\", line); gsub(/"/, "\\\"", line); gsub(/\t/, "\\t", line)
    # Benchmarks that report the "sim-Mlookups/s" custom metric (simulator
    # throughput) carry it as an extra JSON field so benchdiff.sh can guard
    # sim-speed regressions directly.
    # -benchmem adds the host-memory columns B/op and allocs/op.
    sim = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "sim-Mlookups/s") sim = $(i - 1)
        if ($i == "B/op") bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    extra = (sim != "") ? sprintf(",\"sim_mlookups_per_s\":%s", sim) : ""
    if (bytes != "") extra = extra sprintf(",\"bytes_per_op\":%s", bytes)
    if (allocs != "") extra = extra sprintf(",\"allocs_per_op\":%s", allocs)
    printf "%s    {\"name\":\"%s\",\"iterations\":%s,\"ns_per_op\":%s%s,\"line\":\"%s\"}",
        sep, $1, $2, $3, extra, line
    sep = ",\n"
}
END { printf "\n  ]\n}\n" }
' "$OUT.txt" > "$OUT.json"

echo "wrote $OUT.txt and $OUT.json"
