#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash wspbench/run.sh --workload tablei-route --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Every build artefact (the Go
# build cache, temporary files and the binary) stays under .bench_build/,
# so a run reads and writes nothing outside the checkout apart from the
# Go toolchain it reads.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/wspbench" ]]; then
	echo "wspbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" HOME="$out/home"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

commit=none
if [[ -d "$root/.git" ]] && command -v git >/dev/null; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo none)
fi

(cd "$root/wspbench" && go build -buildvcs=false -trimpath -o "$out/wspbench" .)
WSPBENCH_COMMIT="$commit" exec "$out/wspbench" "$@"
