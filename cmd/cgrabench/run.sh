#!/usr/bin/env bash
# Builds cgrabench from source into .bench_build/ and runs it with the
# given flags. Run it from the repository root:
#
#   bash cmd/cgrabench/run.sh --workload table2 --seed 1 --seconds 25 --trace 0
#
# Everything the toolchain writes (build cache, module cache, temporary
# files, telemetry counters) stays inside .bench_build/, the user's Go
# settings are not read, and the toolchain never reaches for the network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go -C cmd/cgrabench build -o "$out/cgrabench" .
exec "$out/cgrabench" "$@"
