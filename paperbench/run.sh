#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments (--workload, --seed, --seconds, --trace). Run from the
# repository root. The build output, the Go build cache and the go command's
# own config and telemetry files all stay in .bench_build.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/paperbench" && go build -o "$out/paperbench" .) >&2
exec "$out/paperbench" "$@"
