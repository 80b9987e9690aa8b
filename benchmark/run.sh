#!/usr/bin/env bash
# Builds dosgid and the benchmark from the checkout's sources and runs one
# benchmark invocation. Everything the build leaves behind (binaries, Go
# build cache, spans.json) stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTOOLCHAIN=local
(cd "$root" && go build -o "$out/bin/dosgid" ./cmd/dosgid)
(cd "$here" && go build -o "$out/bin/dosgi-bench" .)
exec "$out/bin/dosgi-bench" -dosgid "$out/bin/dosgid" -out "$out" "$@"
