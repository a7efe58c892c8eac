#!/usr/bin/env bash
# Builds iosbench from source into .bench_build/ at the root of the checkout and
# runs it with the arguments given. Everything the build and the run write — Go's
# build cache, temp files, saved caches, span files — stays under .bench_build/.
#
#   bash bench/run.sh --workload search_wide --seed 1 --seconds 15 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config" # where the go command keeps its telemetry counters
export TMPDIR="$out/tmp"

# bench/ is a module of its own (module ios/bench, `replace ios => ../`), so the
# build fails — and this script exits non-zero — wherever the repository's own
# go.mod and sources are missing.
(cd "$here" && go build -o "$out/iosbench" .)
exec "$out/iosbench" "$@"
