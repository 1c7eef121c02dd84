#!/usr/bin/env bash
# Builds the netsim host-cost benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload floor-obss --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, span files) goes under .bench_build/ in the
# current directory; no network is used. The build fails, and so does
# this script, when the simulator sources are not next to perfbench/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
