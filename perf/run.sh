#!/bin/sh
# Builds perf.exe from the sources of the checkout it is run from, then
# runs it with the given arguments. Run from the repository root:
#   sh perf/run.sh run --workload suite-4x4 --seed 1 --seconds 20 --trace 0
# Build output goes to stderr, so the last line on stdout is perf.exe's.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perf/run.sh: run from the root of a checkout of the repository" >&2
  exit 2
fi
# Keep the build inside the checkout: no shared dune cache, and the
# compilers' temporary files under _build.
export DUNE_CACHE=disabled
mkdir -p _build/perf-tmp
export TMPDIR="$PWD/_build/perf-tmp"
dune build --root . ./perf/perf.exe 1>&2
exec ./_build/default/perf/perf.exe "$@"
