#!/usr/bin/env bash
# Builds hgbench and the hgserve daemon from the sources of the checkout
# it is run in, then runs hgbench with the given arguments. Run it from
# the repository root:
#
#   bash hgbench/run.sh --workload repair-progen --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache go to .bench_build/ in the root.
set -euo pipefail
# /usr/local/go is where the official Go installers put the toolchain.
command -v go >/dev/null 2>&1 || PATH="$PATH:/usr/local/go/bin"
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/hgserve" ] || [ ! -f "$root/hgbench/go.mod" ]; then
	echo "hgbench: run from the repository root (no go.mod, cmd/hgserve or hgbench/go.mod here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
go build -o "$out/hgserve" ./cmd/hgserve
(cd "$root/hgbench" && go build -o "$out/hgbench-bin" .)
exec "$out/hgbench-bin" -hgserve "$out/hgserve" -out "$out/hgbench" "$@"
