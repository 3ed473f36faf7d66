#!/usr/bin/env bash
# Build the benchmark from source and run it.  Run from the repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the benchmark's last stdout line is its JSON
# result.  Exits non-zero if the build fails or any check fails.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --profile release ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
