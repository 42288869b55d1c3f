#!/usr/bin/env bash
# Runs the tracked engine performance benchmark. A full run writes
# BENCH_engine.json at the repository root; a --smoke run writes
# BENCH_engine_smoke.json in the build tree, so its figures never replace the
# tracked ones. An explicit --out wins over both. Usage:
#
#   bench/run_perf.sh                 # full run (FMTREE_BENCH_TRAJECTORIES scales it)
#   bench/run_perf.sh --smoke         # tiny trajectory count, seconds not minutes
#   bench/run_perf.sh --out f.json    # write the figures to f.json instead
#   BUILD_DIR=out bench/run_perf.sh   # non-default build tree
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"

if [ ! -d "$BUILD" ]; then
  cmake -B "$BUILD" -S "$ROOT"
fi
cmake --build "$BUILD" --target bench_perf_engine -j "$(nproc)"

BIN="$BUILD/bench/bench_perf_engine"
if [ ! -x "$BIN" ]; then
  echo "error: benchmark binary missing at $BIN (build failed, or set BUILD_DIR to the right tree)" >&2
  exit 1
fi

OUT="$ROOT/BENCH_engine.json"
for arg in "$@"; do
  if [ "$arg" = "--smoke" ]; then OUT="$BUILD/BENCH_engine_smoke.json"; fi
done
# The binary takes the last --out, so the caller's own --out wins.
"$BIN" --out "$OUT" "$@"
