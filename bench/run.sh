#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash bench/run.sh --workload plan_search --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes — the Go
# build cache, the toolchain's own state and the binary — and the traced
# run's span files stay in .bench_build/ (or $CARGO_TARGET_DIR).
set -euo pipefail
root=$(pwd)
out="$root/${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
(
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
	export GOTOOLCHAIN=local GOFLAGS="-buildvcs=false -modcacherw" GOENV=off GOTELEMETRY=off
	cd "$root/bench"
	go build -o "$out/bench" .
)
exec "$out/bench" "$@"
