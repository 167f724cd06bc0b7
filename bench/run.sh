#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source into
# .bench_build/ (inside the checkout, like the Go build cache) and runs it
# with the caller's flags. Run it from the repository root.
set -euo pipefail
root=$(pwd)
[ -f "$root/BENCHMARK.json" ] && [ -f "$root/go.mod" ] || {
	echo "bench/run.sh: run from the repository root (BENCHMARK.json and go.mod not found in $root)" >&2
	exit 2
}
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go -C "$root/bench" build -o "$build/skelbench" .
exec "$build/skelbench" "$@"
