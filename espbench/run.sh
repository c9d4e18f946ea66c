#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, with the benchmark's flags:
#
#   bash espbench/run.sh --workload fig5 --seed 1 --seconds 35 --trace 0
#
# The Go build cache, temporary files and the binary stay in .bench_build/
# under the current directory. Without the repository around espbench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# VCS stamping records the commit; a checkout whose VCS status cannot be
# read builds without it.
(cd espbench && { go build -o "$build/espbench" . ||
	go build -buildvcs=false -o "$build/espbench" .; }) >&2
exec "$build/espbench" "$@"
