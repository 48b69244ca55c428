#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. The Go build cache, temp
# files and toolchain state are all kept under .bench_build/ too, so a run
# reads and writes nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp" "$build/home"

export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

# The commit is stamped into the binary where git can tell it; a checkout
# git will not answer for still builds.
go build -C "$here" -o "$build/scidive-bench" . 2>/dev/null ||
	go build -C "$here" -buildvcs=false -o "$build/scidive-bench" .
exec "$build/scidive-bench" "$@"
