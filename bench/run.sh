#!/usr/bin/env bash
# Entry point named by BENCHMARK.json, run from the repository root:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the harness (a module of its own in bench/) and the ccserve
# binary the serving workload drives, then runs the harness. Everything
# it writes — Go's build cache included — stays under .bench_build/ in
# the current directory.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
# Everything the go command might write goes under .bench_build too:
# build cache, module cache, and its telemetry counters (which follow
# the user config directory).
export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off

# go build is its own staleness check: after the first run of a
# checkout both commands are a cache lookup.
go build -C "$root/bench" -o "$build/bench" .
go build -C "$root/bench" -o "$build/ccserve" ccatscale/cmd/ccserve

exec "$build/bench" "$@"
