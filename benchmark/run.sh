#!/usr/bin/env bash
# The benchmark's entry point, run from the repository root:
#
#   bash benchmark/run.sh --workload count_http --seed 1 --seconds 10 --trace 0
#
# It compiles the benchmark (a Go module of its own in this directory)
# and hands over to it; the benchmark then compiles cmd/cinctd from the
# working tree. Everything the Go toolchain writes — build cache, module
# path, telemetry — is pointed into .bench_build in the checkout, so a
# run reads and writes nothing outside it. The first run in a checkout
# compiles the standard library too; later runs reuse the cache.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/bin"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOWORK=off
export XDG_CONFIG_HOME="$build/config"

cd "$root"
go build -C benchmark -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" "$@"
