#!/bin/sh
# Build the benchmark from source, then run it with the given arguments:
#
#   sh bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout.  Build output goes to stderr, so the
# last line on stdout is the benchmark's summary object.
set -e
if [ ! -f dune-project ] || [ ! -f BENCHMARK.json ] || [ ! -d lib ]; then
  echo "perf: run from the root of a full checkout (dune-project, lib/, BENCHMARK.json)" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
# The shared dune cache lives outside the checkout: build inside it only.
DUNE_CACHE=disabled dune build --root . bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
