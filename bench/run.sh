#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the build leaves behind — the binary and Go's build
# and module caches — stays under .bench_build inside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod"
export GOTOOLCHAIN=local
cd "$root"
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
