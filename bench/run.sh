#!/usr/bin/env bash
# Builds the harness from source inside the checkout and runs it from
# the caller's directory. The Go build cache, GOPATH and the binary live
# under .bench_build at the repository root, so a run writes nothing
# outside the checkout and needs no HOME. -trimpath keeps source paths
# out of the binary: call-site records in the traces carry file names,
# and trace_bytes must not depend on where the checkout is.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -trimpath -o "$build/chambench" .
exec "$build/chambench" "$@"
