#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; every
# argument is passed on (see main.go). The build cache, the binary and the
# traced run's spans stay under .bench_build in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --trace-dir "$out" "$@"
