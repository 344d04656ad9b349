#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash bench/run.sh summarize -out bench/baseline.json <result files...>
#
# Everything the build writes (Go build cache, binary, traces) goes under
# .bench_build/ at the checkout root; nothing outside the checkout is
# written. See bench/doc.go for the workloads and metrics.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "bench: $root does not hold the slicing module; run from a full checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
go build -C "$here" -o "$out/slicing-bench" .

commit="unknown"
if [ -e "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse --short=12 HEAD)"
fi
export BENCH_COMMIT="$commit" BENCH_OUT="$out"
exec "$out/slicing-bench" "$@"
