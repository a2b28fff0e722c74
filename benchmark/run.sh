#!/usr/bin/env bash
# Builds rcbtbench from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload train-wide --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, temporary server state
# and trace.json.
set -euo pipefail

out="${PWD}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/gocache" GOPATH="${out}/gopath" GOMODCACHE="${out}/gomodcache" GOTMPDIR="${out}"
# The go command's telemetry counters go under the user config dir.
export XDG_CONFIG_HOME="${out}/config" XDG_CACHE_HOME="${out}/cache"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOENV=off
# The commit in the machine stamp comes from VCS stamping, which fails
# when an enclosing git repository cannot be read (another owner, no
# git binary); then build without the stamp.
(cd benchmark && { go build -o "${out}/rcbtbench" ./cmd/rcbtbench 2>/dev/null ||
	go build -buildvcs=false -o "${out}/rcbtbench" ./cmd/rcbtbench; })
exec "${out}/rcbtbench" "$@"
