#!/usr/bin/env bash
# Builds the host-time benchmark from the checkout's own sources and runs
# it with the given arguments. Run from the repository root:
#
#   bash hostbench/run.sh --workload md-seq --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, traces) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$root/hostbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/config" GOCACHE="$out/gocache" \
		GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOENV=off \
		go build -o "$out/hostbench" .
) >&2
exec "$out/hostbench" "$@"
