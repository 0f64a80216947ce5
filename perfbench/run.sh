#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in, then runs it with
# the arguments given: --workload <name> --seed <n> --seconds <s> --trace <0|1>.
# Run from the repository root. Build outputs, the Go build cache and
# span files stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
