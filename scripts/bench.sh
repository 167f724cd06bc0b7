#!/usr/bin/env sh
# Runs the repo's benchmark suite and records the results as benchjson JSON.
# The committed BENCH_*.json recordings are what CI gates against, so the
# default output is the git-ignored bench_out.json; write a recording on
# purpose with OUT.
#
#   scripts/bench.sh                 # full suite -> bench_out.json
#   OUT=my.json scripts/bench.sh     # choose the output file
#   BENCHTIME=200x scripts/bench.sh  # fixed iteration count (comparable runs)
#   FILTER='FarmThroughput|EventOverhead|EngineFanout' scripts/bench.sh
#   PKGS='./internal/server' scripts/bench.sh   # restrict the package list
#
# Compare two recordings (fails on >20% regressions, timing advisory-only):
#
#   go run ./cmd/benchjson -compare BENCH_baseline.json -against bench_out.json
set -eu

cd "$(dirname "$0")/.."

OUT="${OUT:-bench_out.json}"
BENCHTIME="${BENCHTIME:-200x}"
FILTER="${FILTER:-.}"
PKGS="${PKGS:-. ./internal/server ./internal/metrics ./internal/remote}"

# shellcheck disable=SC2086 # PKGS is a deliberate word list
go test -bench "$FILTER" -benchmem -benchtime "$BENCHTIME" -run '^$' $PKGS \
	| tee /dev/stderr \
	| go run ./cmd/benchjson -out "$OUT"

echo "wrote $OUT" >&2
