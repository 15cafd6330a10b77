#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload interactive --seed 1 --seconds 8 --trace 0
#
# Run it from the repository root. Every file the build and the run
# write stays under the build directory ($CARGO_TARGET_DIR when set,
# else .bench_build): the Go build cache, the binary, the write-ahead
# log of durable-pool and the traced run's spans.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-mod=mod GOTELEMETRY=off

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
