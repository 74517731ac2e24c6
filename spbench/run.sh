#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash spbench/run.sh --workload warm_read --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under spbench/.out: the
# Go build cache and configuration, the binary and the database files.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$here/.out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/spbench" .)
exec "$out/spbench" "$@"
