#!/usr/bin/env bash
# Builds the benchmark from source in this checkout, then runs it with the
# given arguments. Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload radix-64-coherence --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary, the go command's config and temporary
# files, CPU profiles and span dumps all stay under .bench_build/ in the
# checkout.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$(dirname "$0")" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
