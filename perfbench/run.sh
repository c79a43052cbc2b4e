#!/usr/bin/env bash
# Builds the benchmark harness from the sources of the checkout it runs in
# and runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-day --seed 2005 --seconds 30 --trace 0
#
# The binary, the Go build cache and the temporary datasets stay under
# .bench_build/ in the current directory. Outside a full checkout (no
# go.mod and internal/ next to perfbench/) the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
