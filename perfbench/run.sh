#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it with the
# given arguments, from the checkout's root. Build output, the Go build
# cache and run state stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
# The go command's caches, its scratch files, and the telemetry counters
# it keeps under the user config directory stay inside the build
# directory too.
export GOTOOLCHAIN=local GOENV=off GOFLAGS="-mod=readonly -buildvcs=false" \
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build" "$@"
