#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the
# given arguments, from the root of a checkout:
#   bash bench/e2e/run.sh --workload lint-ci --seed 1 --seconds 10 --trace 0
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run from the root of a pathcons checkout" >&2
  exit 2
fi
dune build --root . --cache=disabled --display=quiet ./bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
