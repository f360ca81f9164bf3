#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. Everything the
# build writes (Go's build cache, its temporary files, the binaries) stays
# under .bench_build, so a run reads and writes only inside the checkout.
# Run it from the root of the repository:
#
#   bash benchmark/run.sh --workload sched_burst --seed 1 --seconds 8 --trace 0
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d benchmark ]; then
	echo "benchmark/run.sh: run from the root of the repository checkout" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
