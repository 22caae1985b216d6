#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload design --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build, the Go build cache and the
# trace files stay under the build directory ($CARGO_TARGET_DIR when set,
# else .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

# Build into a temporary name and rename, so an interrupted build never
# leaves a half-written binary behind.
(cd "$root/perfbench" && go build -o "$out/perfbench.tmp" .)
mv "$out/perfbench.tmp" "$out/perfbench"
exec "$out/perfbench" -trace-dir "$out/traces" "$@"
