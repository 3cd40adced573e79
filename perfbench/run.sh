#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs
# it with the given arguments (see perfbench/README.md):
#
#	bash perfbench/run.sh --workload grid4k --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the checkout root: the Go build cache, temporary files, the go
# command's user configuration (telemetry counters included), the binary
# and the daemon workload's state directories.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/dynsched.go" ]; then
	echo "perfbench: $root holds no dynsched sources to build" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
