#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# it with every argument passed through:
#
#   bash bench/run.sh --workload probe-hot --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, the span file and the Go tool's own
# configuration all stay under .bench_build/ at the checkout root. Without the
# repository's sources beside it (../go.mod) the build fails and so does this
# script.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
