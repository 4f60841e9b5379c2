#!/usr/bin/env bash
# Builds the FTC benchmark from the enclosing checkout and runs it.
#
#   bash ftcbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the checkout. Every build product (Go build cache,
# temporary files, the binary) and every result file lands under
# .bench_build/ in that root, so the run reads and writes nothing outside the
# checkout. Without the library sources next to ftcbench/ the build fails and
# the script exits non-zero before any result is printed.
set -euo pipefail

root=$(pwd)
# Build directory: $CARGO_TARGET_DIR when the caller sets one, else .bench_build.
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/home"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOENV=off
export GOWORK=off
# The go command keeps telemetry and other state under the user's config
# and cache directories; point them into the build directory too.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"

(cd "$root/ftcbench" && go build -o "$build/ftcbench" .)
exec "$build/ftcbench" -out "$build/results" "$@"
