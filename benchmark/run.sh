#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it, keeping
# the Go build cache and the binary inside the checkout (.bench_build/).
# Arguments go to the benchmark unchanged; see benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: no Go module here; run it from a checkout of the repository" >&2
	exit 1
fi
mkdir -p .bench_build
build="$PWD/.bench_build"
# XDG_CONFIG_HOME: the go command keeps its telemetry counters there.
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/trustddl-benchmark" ./benchmark
exec "$build/trustddl-benchmark" "$@"
