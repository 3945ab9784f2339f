#!/usr/bin/env bash
# Builds the chase-stack benchmark from this checkout's sources and runs it
# from the repository root. All build output stays under .bench_build/.
#
#   bash chasebench/run.sh --workload obda-fleet --seed 1 --seconds 15 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/bin/chasebench" .) >&2
cd "$root"
exec "$out/bin/chasebench" "$@"
