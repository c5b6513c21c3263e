#!/usr/bin/env bash
# Builds the benchmark and the shardworker daemon from this checkout's
# sources, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload mine-dense --seed 1 --seconds 25 --trace 0
#
# Everything the Go toolchain writes (build cache, binaries, temporary
# files, its config) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	XDG_CACHE_HOME="$out/home/.cache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/perfbench" build -o "$out/bin/perfbench" . >&2
go -C "$root" build -o "$out/bin/shardworker" ./cmd/shardworker >&2

exec "$out/bin/perfbench" -shardworker "$out/bin/shardworker" "$@"
