#!/usr/bin/env bash
# Builds TMan's benchmark from source and runs it. Run from the repository
# root; every argument is passed on:
#
#   bash perfbench/run.sh --workload query-hot --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, the data directories and the trace files all
# live under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
