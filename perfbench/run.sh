#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/ in
# the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
export TMPDIR="$out/tmp"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
