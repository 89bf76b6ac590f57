#!/usr/bin/env bash
# Builds the owperf benchmark from the sources in this checkout and runs
# it with the given arguments, e.g.
#
#   bash owperf/run.sh --workload membound-full --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (Go build cache, binary, temp dirs,
# Chrome traces) stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-build" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local \
	GOFLAGS= GOPROXY=off GOSUMDB=off
go -C "$root/owperf" build -o "$out/owperf" . >&2
exec "$out/owperf" --out "$out" "$@"
