#!/usr/bin/env bash
# Builds hgserved and the load generator from this checkout's sources, then
# runs one benchmark workload. Run from the checkout root:
#   bash perfbench/run.sh --workload schema-mix --seed 1 --seconds 10 --trace 0
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's env file and telemetry counters
# here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/bin/" . repro/cmd/hgserved) >&2
exec "$out/bin/perfbench" -server "$out/bin/hgserved" -root "$root" "$@"
