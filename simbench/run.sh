#!/usr/bin/env bash
# Builds the simbench binary from the checkout it runs in and executes it
# with the given arguments. Every file the build and the run leave behind
# stays under $CARGO_TARGET_DIR (default .bench_build) in the current
# directory, which must be the repository root.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"

(cd "$root/simbench" && go build -o "$out/simbench" .) >&2
exec "$out/simbench" -work "$out/work" "$@"
