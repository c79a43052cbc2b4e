#!/bin/sh
# Benchmark snapshot: runs the dataset save/load benchmarks (on the
# shared 24-hour full-roster failure fixture) through the obs metrics
# registry and writes the combined JSON — per-benchmark throughput plus
# the registry's chunk/byte counters and wall-clock encode/compress
# histograms — to BENCH_<date>.json at the repo root (or to the path
# given as $1).
#
# With -compare, instead takes a fresh snapshot to a temp file and
# diffs it against the latest committed BENCH_*.json via
# webfail-benchdiff: per-metric tolerances (generous on wall time for
# noisy CI boxes, tight on allocations), nonzero exit with a FAIL table
# on regression. The fresh snapshot runs at the baseline's GOMAXPROCS:
# the load bench ingests with one shard per CPU, so its allocation
# counts depend on it (the save bench's do not: a sink encodes and
# compresses its own chunks), and snapshots taken at different values
# do not compare.
# scripts/verify.sh runs this when WEBFAIL_BENCH_GATE=1.
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "-compare" ]; then
    base=$(ls BENCH_*.json 2>/dev/null | sort | tail -1)
    if [ -z "$base" ]; then
        echo "bench.sh: no committed BENCH_*.json baseline to compare against" >&2
        exit 1
    fi
    procs=$(sed -n 's/^ *"gomaxprocs": *\([0-9][0-9]*\).*/\1/p' "$base" | head -1)
    if [ -z "$procs" ]; then
        echo "bench.sh: $base records no gomaxprocs" >&2
        exit 1
    fi
    fresh=$(mktemp /tmp/webfail-bench.XXXXXX.json)
    trap 'rm -f "$fresh"' EXIT
    GOMAXPROCS="$procs" WEBFAIL_BENCH_OUT="$fresh" go test -run '^TestBenchSnapshot$' -count=1 . > /dev/null
    go run ./cmd/webfail-benchdiff -base "$base" -new "$fresh"
    exit 0
fi

out="${1:-BENCH_$(date +%Y-%m-%d).json}"
WEBFAIL_BENCH_OUT="$out" go test -run '^TestBenchSnapshot$' -count=1 -v . | grep -v '^=== RUN'
echo "wrote $out"
