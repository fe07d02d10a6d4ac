#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it with
# the given arguments. Run it from the repository root:
#
#	bash perfbench/run.sh --workload stream-dense --seed 1 --seconds 10 --trace 0
#
# Everything the build and the benchmark write stays under .bench_build/
# in the repository root: the Go build cache, the binary, the store's
# temporary directories and the traced run's span files.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp"

# The module needs nothing beyond the standard library and the repository
# it replaces, so the build never reaches for a proxy or a newer toolchain.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
