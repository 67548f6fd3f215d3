#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload count-bound --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artefact (binary, Go build
# cache and scratch files, Go's per-user config) stays under .bench_build/
# in that directory; CARGO_TARGET_DIR, when set, names that directory
# instead. The build is offline: the benchmark is a module of its own that
# reaches the repository through a local replace directive and needs
# nothing outside it.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/go-cache" "$out/go-config" "$out/go-path" "$out/go-tmp"

export GOCACHE=$out/go-cache GOPATH=$out/go-path GOTMPDIR=$out/go-tmp XDG_CONFIG_HOME=$out/go-config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
