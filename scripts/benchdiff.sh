#!/bin/sh
# benchdiff.sh — compare two bench.sh JSON snapshots and fail on simulator
# speed regressions.
#
# For every benchmark present in both snapshots the script compares simulator
# throughput: the "sim_mlookups_per_s" field when both sides carry it
# (benchmarks reporting the sim-Mlookups/s metric), falling back to inverse
# ns_per_op otherwise. A benchmark whose new speed falls more than THRESH
# (default 20%) below the old one fails the diff; improvements and new or
# removed benchmarks are reported but never fail. Host memory per op
# (bytes_per_op, allocs_per_op from bench.sh's -benchmem) is printed under
# each benchmark that carries it on both sides, and never gated.
#
# Usage: scripts/benchdiff.sh old.json new.json [threshold]
#   threshold — maximum tolerated fractional regression (default 0.20)
#
# Wall-clock noise note: single-iteration (-benchtime 1x) snapshots jitter a
# few percent run to run; the 20% gate is deliberately loose so only real
# regressions trip it. Snapshots from different machines are not comparable:
# when both carry a bench.sh host fingerprint and the fingerprints differ,
# the script exits 2 without comparing; when either lacks one it warns.
set -eu

if [ $# -lt 2 ]; then
    echo "usage: $0 old.json new.json [threshold]" >&2
    exit 2
fi
OLD=$1
NEW=$2
THRESH=${3:-0.20}

# Run manifests (cmd/*bench -manifest output) carry a "tool" field that bench
# snapshots never do; delegate those to obsdiff, which knows how to compare
# config, metrics and the cycle account with thresholds.
if grep -q '"tool"' "$OLD" 2>/dev/null; then
    exec ${GO:-go} run ./cmd/obsdiff -rel "$THRESH" "$OLD" "$NEW"
fi

host() { sed -n 's/^ *"host": *\({.*}\).*/\1/p' "$1"; }
OLDHOST=$(host "$OLD")
NEWHOST=$(host "$NEW")
if [ -n "$OLDHOST" ] && [ -n "$NEWHOST" ]; then
    if [ "$OLDHOST" != "$NEWHOST" ]; then
        echo "benchdiff: snapshots come from different hosts; their timings are not comparable" >&2
        echo "  $OLD: $OLDHOST" >&2
        echo "  $NEW: $NEWHOST" >&2
        exit 2
    fi
else
    for f in "$OLD" "$NEW"; do
        if [ -z "$(host "$f")" ]; then
            echo "benchdiff: warning: $f has no host fingerprint; cannot confirm both snapshots come from one host" >&2
        fi
    done
fi

awk -v thresh="$THRESH" -v newfile="$NEW" '
function field(s, key,    re, v) {
    re = "\"" key "\":[-+0-9.eE]+"
    if (match(s, re)) {
        v = substr(s, RSTART, RLENGTH)
        sub("\"" key "\":", "", v)
        return v
    }
    return ""
}
/"name":/ {
    name = $0
    sub(/.*"name":"/, "", name)
    sub(/".*/, "", name)
    ns = field($0, "ns_per_op")
    sim = field($0, "sim_mlookups_per_s")
    bytes = field($0, "bytes_per_op")
    allocs = field($0, "allocs_per_op")
    if (NR == FNR) { # first pass: the old snapshot (works when old == new)
        old_ns[name] = ns
        old_sim[name] = sim
        old_bytes[name] = bytes
        old_allocs[name] = allocs
        order[n++] = name
    } else {
        new_ns[name] = ns
        new_sim[name] = sim
        new_bytes[name] = bytes
        new_allocs[name] = allocs
    }
}
END {
    failed = 0
    compared = 0
    for (i = 0; i < n; i++) {
        name = order[i]
        if (!(name in new_ns)) {
            printf "  MISSING  %s (not in %s)\n", name, newfile
            continue
        }
        if (old_sim[name] != "" && new_sim[name] != "") {
            oldspeed = old_sim[name] + 0
            newspeed = new_sim[name] + 0
            unit = "sim-Mlookups/s"
        } else {
            oldspeed = (old_ns[name] + 0 > 0) ? 1e9 / (old_ns[name] + 0) : 0
            newspeed = (new_ns[name] + 0 > 0) ? 1e9 / (new_ns[name] + 0) : 0
            unit = "runs/s"
        }
        if (oldspeed <= 0) continue
        compared++
        ratio = newspeed / oldspeed
        status = "ok"
        if (ratio < 1 - thresh) {
            status = "REGRESSED"
            failed++
        }
        printf "  %-9s %-50s %10.3f -> %10.3f %-15s (%+.1f%%)\n",
            status, name, oldspeed, newspeed, unit, (ratio - 1) * 100
        if (old_bytes[name] != "" && new_bytes[name] != "") {
            printf "  %-9s %-50s %10.0f -> %10.0f B/op", "mem", "", old_bytes[name], new_bytes[name]
            if (old_allocs[name] != "" && new_allocs[name] != "")
                printf ", %.0f -> %.0f allocs/op", old_allocs[name], new_allocs[name]
            printf "\n"
        }
    }
    if (compared == 0) {
        print "benchdiff: no comparable benchmarks found" > "/dev/stderr"
        exit 2
    }
    if (failed > 0) {
        printf "benchdiff: %d benchmark(s) regressed more than %.0f%% in sim-speed\n", failed, thresh * 100 > "/dev/stderr"
        exit 1
    }
    printf "benchdiff: %d benchmark(s) within %.0f%% of baseline sim-speed\n", compared, thresh * 100
}
' "$OLD" "$NEW"
