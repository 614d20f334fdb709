#!/usr/bin/env bash
# Builds the benchmark and cmd/gossipd from this checkout's source, then
# runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root, the Go build cache included.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
(cd "$root" && go build -o "$out/bin/gossipd" ./cmd/gossipd)

cd "$root"
exec "$out/bin/perfbench" -gossipd "$out/bin/gossipd" -scratch "$out/run" "$@"
