#!/usr/bin/env bash
# Builds and runs the repository benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload crowd-full --seed 1 --seconds 35 --trace 0
#   bash perfbench/run.sh record --workload storm --seeds 1,9
#
# --trace 0 runs the end-to-end binary, which uses only the public mcnet
# facade; --trace 1 and record run the traced binary, which also rebuilds
# each operation from the internal packages to time its layers. Keeping the
# two apart lets the end-to-end numbers build even when internals change.
# Every build product, cache and temporary file stays under .bench_build.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off GOWORK=off

prog=e2e
prev=
for arg in "$@"; do
	case "$arg" in
	record) prog=traced ;;
	--trace=1 | -trace=1) prog=traced ;;
	1) if [[ "$prev" == --trace || "$prev" == -trace ]]; then prog=traced; fi ;;
	esac
	prev=$arg
done

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/$prog" "./$prog") >&2
exec "$out/$prog" "$@"
