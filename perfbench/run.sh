#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it sits in and runs it
# with the given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload point-zipf --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write goes under .bench_build/ at the
# root. Outside a full checkout (no module at ..) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
(
	cd perfbench
	GOCACHE="$build/gocache" GOMODCACHE="$build/modcache" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local \
		go build -o "$build/perfbench" .
)
exec "$build/perfbench" "$@"
