#!/usr/bin/env bash
# The benchmark's build file and entry point, run from the repository
# root: bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the driver (package swcaffe/bench, stdlib and this module only)
# into .bench_build/ and runs it. Everything the Go toolchain writes —
# build cache, module cache, temporary files, its telemetry mode file
# (under the user config directory) — is kept under .bench_build/ too,
# so a run reads and writes only inside the checkout; the first run
# compiles the standard library and takes about a quarter of a minute.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
# With a fresh config directory the go command would start a detached
# telemetry child (`go` re-executed with GO_TELEMETRY_CHILD=1) that
# outlives this script; telemetry mode "off" starts none.
echo off >"$build/config/go/telemetry/mode"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go build -o "$build/swcaffe-bench" ./bench
exec "$build/swcaffe-bench" "$@"
