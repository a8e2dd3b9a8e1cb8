#!/usr/bin/env bash
# Builds the repository benchmark from the sources of this checkout and
# runs it. Every file the build and the run write stays under
# .bench_build/ at the root of the checkout.
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
