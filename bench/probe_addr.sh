#!/usr/bin/env bash
# Builds the end-to-end benchmark binary exactly as bench/e2e/run.sh does
# and prints where its host-speed probe loop, main.(*probe).run, was linked,
# with the address mod 64. Run it from the repository root:
#
#   bash bench/probe_addr.sh
#
# The probe loop runs ~15-20% faster at 32 mod 64 than at 0 mod 64, so
# every probe-normalized metric moves with it. Compare the output of two
# checkouts before reading their ledgers against each other.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench/e2e" && go build -o "$build/e2e" .)
addr=$(go tool nm "$build/e2e" | awk '$3 == "main.(*probe).run" { print $1 }')
if [ -z "$addr" ]; then
	echo "probe_addr: main.(*probe).run not found in $build/e2e" >&2
	exit 1
fi
printf 'main.(*probe).run 0x%s mod64=%d\n' "$addr" $((16#$addr % 64))
