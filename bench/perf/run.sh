#!/usr/bin/env bash
# Builds bench/perf/perf.exe from the sources of the checkout this script
# lives in, then runs it with the given arguments (see README.md).
# Build output stays in the checkout's _build; the shared dune cache is
# disabled so nothing is written outside it.
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "bench/perf/run.sh: $(pwd) is not a full checkout (no dune-project or lib/)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe "$@"
