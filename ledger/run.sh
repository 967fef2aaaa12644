#!/usr/bin/env bash
# Builds the ledger from source (release profile, in .bench_build) and
# runs it with the given arguments. Run from the root of a checkout:
#
#   bash ledger/run.sh bench --workload md5-line-rate --seed 7 --seconds 25 --trace 0
#   bash ledger/run.sh run --json ledger/results/NAME.json --commit HASH
#   bash ledger/run.sh compare A.json B.json
#
# Build output goes to stderr; stdout is the ledger's alone.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f ledger/dune ]; then
  echo "ledger/run.sh: run from the root of a LogNIC checkout" >&2
  exit 2
fi

# The cache is off so the build reads and writes nothing outside the
# checkout.
dune build --root . --profile release --build-dir .bench_build \
  --cache=disabled ./ledger/ledger.exe >&2

exec ./.bench_build/default/ledger/ledger.exe "$@"
