#!/usr/bin/env bash
# Builds vmat-server, vmat-worker and the benchmark from this checkout,
# then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload jobs-open --seed 1 --seconds 16 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config/go/telemetry" "$out/bin"
# The go command's cache and temporary files stay in the checkout too.
# Telemetry is off: in its default local mode every go command may start
# a detached sidecar process that outlives the benchmark.
printf 'off\n' >"$out/config/go/telemetry/mode"
gobuild() {
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= go "$@" >&2
}
gobuild -C "$root" build -o "$out/bin/" ./cmd/vmat-server ./cmd/vmat-worker
gobuild -C "$root/perfbench" build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
