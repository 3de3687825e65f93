#!/usr/bin/env bash
# Build the benchmark from this checkout's sources and run one workload:
#
#   bash repobench/run.sh --workload classic --seed 1 --seconds 10 --trace 0
#
# Run from anywhere inside a full checkout; the last line of stdout is the
# JSON result. Build output goes to stderr.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "repobench: not a full checkout (dune-project or lib/ missing)" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./repobench/main.exe 1>&2
exec ./_build/default/repobench/main.exe "$@"
