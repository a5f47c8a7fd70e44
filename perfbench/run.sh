#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the given
# arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build product and Go cache lives under .bench_build/ in the checkout.
# Without the zsim module beside it the build fails, and so does this script.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOPATH="$out/go-path"
export GOTMPDIR="$out/go-tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
mkdir -p "$GOTMPDIR"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
