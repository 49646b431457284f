#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Run from the repository root:
#   bash perfbench/run.sh --workload g8-tlp-refine-pagerank --seed 42 --seconds 20 --trace 0
# Every build artefact, the Go build cache included, stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
commit=unknown
if [ -e "$root/.git" ]; then commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown); fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --commit "$commit" "$@"
