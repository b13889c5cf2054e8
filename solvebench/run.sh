#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it:
#
#   bash solvebench/run.sh --workload synth-lpr --seed 1 --seconds 24 --trace 0
#
# It changes to the root of the source tree first, so recorded answers
# and run artifacts resolve there.  All arguments go to solvebench.exe
# (see solvebench/README.md).  Exits non-zero without a result when the
# tree cannot be built.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./solvebench/solvebench.exe 1>&2
exec ./_build/default/solvebench/solvebench.exe "$@"
