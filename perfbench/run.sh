#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build leaves behind (binary, Go build cache, go command
# state) stays under .bench_build/ at the root of the tree.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" "$@"
