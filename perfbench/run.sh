#!/usr/bin/env bash
# Builds the repository benchmark from the sources of this checkout and
# runs it. Run it from the repository root:
#
#   bash perfbench/run.sh --workload decide_cold --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain and the benchmark write goes under the
# build directory of the checkout ($CARGO_TARGET_DIR, default
# .bench_build), so a run touches nothing outside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ] || [ ! -d internal/service ]; then
	echo "perfbench: run from the repository root; go.mod, perfbench/ and internal/ must be present" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/go/cache" "$out/go/tmp" "$out/go/modcache" "$out/go/config"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/go/cache" GOTMPDIR="$out/go/tmp" GOMODCACHE="$out/go/modcache"
export XDG_CONFIG_HOME="$out/go/config" GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out/perfbench-results" "$@"
