#!/bin/sh
# Build the end-to-end benchmark from source, then run it:
#   bash bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr so the
# harness's JSON result stays the last line of stdout; dune's shared
# cache is off so nothing is written outside the checkout.
set -e
export DUNE_CACHE=disabled
dune build --root . ./bench/e2e/bench_e2e.exe 1>&2
exec ./_build/default/bench/e2e/bench_e2e.exe "$@"
