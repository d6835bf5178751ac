#!/usr/bin/env bash
# Builds perfbench from the source tree it is run in, then runs it with
# the given arguments. Run from the root of a deltanet checkout:
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache go under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a deltanet checkout" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out"

mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --outdir "$out" "$@"
