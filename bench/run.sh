#!/usr/bin/env bash
# Builds the benchmark from source and replaces this shell with it: one OS
# process, no `go run` (its compiled child outlives a killed parent), nothing
# in the background. Everything the build writes stays under bench/out.
set -euo pipefail
cd "$(dirname "$0")"
root="$(cd .. && pwd)"
mkdir -p out
export GOCACHE="$PWD/out/gocache" GOPATH="$PWD/out/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off
go build -o out/jdvs-e2e .
cd "$root"
exec bench/out/jdvs-e2e "$@"
