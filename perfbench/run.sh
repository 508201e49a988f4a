#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload serve_warm --seed 1 --seconds 12 --trace 0
#
# The build cache lives in .bench_build at the checkout root, so a run reads
# and writes nothing outside the checkout. Without the photonoc module next to
# this directory there is nothing to benchmark and the script exits 2.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: no photonoc module at $root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
