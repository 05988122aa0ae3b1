#!/bin/sh
# Builds the end-to-end benchmark (and the xquec binary it serves with)
# from source, then runs it with the given arguments, e.g.
#   sh bench/e2e/run.sh --workload point_cold --seed 7 --seconds 12 --trace 0
#   sh bench/e2e/run.sh --seed 42      (every workload, one process each)
# The dune cache stays off so the build writes only inside the checkout.
set -eu
cd "$(dirname "$0")/../.."
DUNE_CACHE=disabled dune build --root . --display quiet bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe "$@"
