#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 42 --seconds 35 --trace 0
#
# Every build artifact (the Go build cache included) stays under
# .bench_build/ in the working directory, so the run writes nothing outside
# the checkout. Outside a full checkout (no go.mod or internal/ beside
# perfbench/) it exits non-zero without a result line.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the root of a full checkout (go.mod and internal/ not found)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOTMPDIR="$build"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOTELEMETRY=off

go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" -build "$build" "$@"
