#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it.
#
#   bash perfbench/run.sh --workload local-mail --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product (the Go build cache
# and the binary) stays under .bench_build/ in the checkout; run records and
# span dumps go to .bench_out/. The build fails, and the script exits
# non-zero without printing a result, when the repository source beside
# perfbench/ is missing.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
