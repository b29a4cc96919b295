#!/usr/bin/env bash
# Builds the benchmark, atcserve and atcstatic from this checkout's source
# into .bench_build/perfbench, then runs one benchmark workload.
#
#   bash perfbench/run.sh --workload lossless-gcc|lossy-mcf|serve-remote \
#       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Every file it writes (Go build cache,
# binaries, archives, spans) stays under .bench_build/perfbench.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/bin/" . atc/cmd/atcserve atc/cmd/atcstatic)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
