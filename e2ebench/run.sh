#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the root of a checkout of the liferaft module:
#
#   bash e2ebench/run.sh --workload gateway_mix --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, segment
# stores, span dumps) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [ ! -f "$here/../go.mod" ] || [ ! -d "$here/../internal" ]; then
	echo "e2ebench: $here/.. is not a liferaft checkout (no go.mod or internal/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -out "$out" "$@"
