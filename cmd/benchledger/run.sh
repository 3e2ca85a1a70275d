#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/benchledger/run.sh --workload adapted_call --seed 1 --seconds 25 --trace 0
#   bash cmd/benchledger/run.sh compare a.jsonl b.jsonl
#
# The benchmark is the package ./cmd/benchledger of the repository's module.
# The toolchain's caches, configuration and temporary files, the binary, and
# the run ledger and trace files all stay under .bench_build/benchledger in
# the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "run.sh: run it from the repository root (no go.mod and internal/ here)" >&2
	exit 1
fi
out="$root/.bench_build/benchledger"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go build -o "$out/benchledger" ./cmd/benchledger
exec "$out/benchledger" "$@"
