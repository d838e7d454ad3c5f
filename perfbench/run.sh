#!/bin/sh
# Builds the SpotVerse benchmark and the spotverse-experiments CLI it
# checks against from the source tree this script sits in, then runs the
# benchmark with the given arguments:
#
#   sh perfbench/run.sh --workload paper|fleet|serve --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build outputs, the Go build cache,
# temporary files and the Go tool's own state all stay under
# .bench_build/ in that root, so nothing is written outside the checkout.
set -eu

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export TMPDIR="$out/tmp"
export GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off

go build -o "$out/spotverse-experiments" ./cmd/spotverse-experiments
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" --cli "$out/spotverse-experiments" "$@"
