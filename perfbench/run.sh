#!/usr/bin/env bash
# Builds the benchmark and the two server binaries it drives, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload mine-dense --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build): the Go build and
# module caches, the binaries, and the run outputs.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/home" "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off GOPROXY=off GOWORK=off

# With a fresh HOME every go command would otherwise start a detached
# telemetry process that outlives the run. `go telemetry off` is the one
# go command that starts none; it records the mode under $HOME.
go telemetry off >&2

# The build is not part of any measurement; its output goes to stderr
# so the result line stays the last line of stdout.
(cd "$root" && go build -o "$build/bin/" ./cmd/scpm-serve ./cmd/scpm-gateway) >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" "$@"
