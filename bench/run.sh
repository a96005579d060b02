#!/bin/sh
# Builds the benchmark from source and becomes it.
#
#   sh bench/run.sh --workload scan_heavy --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. Everything the build and the run
# write stays under .bench_build/ in that checkout: the Go build cache,
# the compiler's scratch space, the binary, and the run's temporary
# files (which the binary removes before it exits). The last step is an
# exec, so the process the caller holds is the benchmark itself; it
# starts no other process.
set -eu

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# HOME is redirected for the build so that nothing the Go command keeps
# per user (telemetry counters, its configuration) lands outside the
# checkout.
HOME="$out/home" go build -C bench -o "$out/bench" .
exec "$out/bench" -tmp "$out" "$@"
