#!/bin/sh
# Build fpvm_bench from source, then run it from the repository root with
# the given arguments, e.g.
#   sh bench/perf/run.sh --workload libm-mpfr --seed 1 --seconds 15 --trace 0
# Build output goes to stderr, so stdout carries only the benchmark's report.
set -e
cd "$(dirname "$0")/../.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
# Keep every build artifact inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/perf/fpvm_bench.exe >&2
exec ./_build/default/bench/perf/fpvm_bench.exe "$@"
