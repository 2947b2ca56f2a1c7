#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the repository root:
#
#   bash bench/e2e/run.sh --workload serve-mc --seed 1 --seconds 15 --trace 0
#
# The Go build cache and the binary live in .bench_build/ at the root, so
# the run reads and writes nothing outside the checkout. The build fails,
# and the script exits non-zero, when the library sources are missing.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench/e2e" && go build -o "$build/e2e" .)
exec "$build/e2e" "$@"
