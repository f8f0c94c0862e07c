#!/usr/bin/env bash
# Builds the finwl end-to-end benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload cold-paper --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build writes (binary,
# Go build cache, toolchain config) stays under .bench_build/ in the
# current directory; the toolchain is never downloaded.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
