#!/usr/bin/env bash
# Builds the replay benchmark from the checkout's sources, then runs it with
# every argument passed through (see perfbench/README.md):
#
#	bash perfbench/run.sh --workload calm --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Go's build cache, module cache, temporary
# files and config stay inside the checkout, under .bench_build, and the
# build never touches the network.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off
cd "$root/perfbench"
go build -o "$out/replaybench" .
exec "$out/replaybench" "$@"
