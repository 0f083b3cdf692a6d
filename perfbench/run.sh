#!/usr/bin/env bash
# run.sh — build the pipeline benchmark from source and run it.
#
# Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-sim --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare OLD.jsonl NEW.jsonl
#
# Every build product, cache and scratch file stays under .bench_build/ in
# the current directory. The benchmark is its own module (perfbench/go.mod)
# that replaces the repository module with the parent directory, so it
# builds against the checked-out tree; outside a checkout the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOWORK=off GOTOOLCHAIN=local GOPROXY=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its env file and telemetry counters under the user
# config directory; point it inside the build directory too.
export XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
if [ "${1:-}" = compare ]; then
	exec "$out/perfbench" "$@"
fi
exec "$out/perfbench" -workdir "$out/work" "$@"
