#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing every
# argument through:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. The build cache, temporary files and the
# binary stay under .bench_build in the current directory; nothing is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOSUMDB=off

# The go command keeps usage counters under the user's config directory.
(cd "$(dirname "$0")" && HOME="$out/home" XDG_CONFIG_HOME="$out/home" go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
