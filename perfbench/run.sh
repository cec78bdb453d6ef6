#!/usr/bin/env bash
# Builds the benchmark from the enclosing checkout and runs it.
#
#   bash perfbench/run.sh --workload <paper-log|sharded-hot|live-http|all> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build outputs, the Go build cache,
# write-ahead logs and traces all stay under $CARGO_TARGET_DIR (default
# .bench_build), so the run touches nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache
export GOTMPDIR=$out/tmp
export TMPDIR=$out/tmp
export GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
