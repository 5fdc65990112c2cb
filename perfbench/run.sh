#!/usr/bin/env bash
# Builds schedserve and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-paced --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/schedserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/schedserve and perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gopath/pkg/mod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=mod -buildvcs=false" GOWORK=off GOENV=off

go build -o "$out/schedserve" ./cmd/schedserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -schedserve "$out/schedserve" -work "$out" "$@"
