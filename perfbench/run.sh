#!/usr/bin/env bash
# Build the benchmark and the epoc binary from source, then run one
# benchmark invocation from the root of the checkout:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bin/epoc_cli.ml ]; then
  echo "perfbench: run from an EPOC checkout (dune-project, lib/, bin/)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . \
  ./perfbench/perfbench.exe ./bin/epoc_cli.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
