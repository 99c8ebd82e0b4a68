#!/usr/bin/env bash
# Builds the DSR benchmark from source and runs it. Run from the root of
# a checkout: `bash dsrbench/run.sh --workload locality --seed 1
# --seconds 30 --trace 0`. Everything the build and the run write (the
# binary, the Go build cache, the toolchain's local state, span files)
# goes to .bench_build/ in the current directory; all arguments are
# passed to the benchmark binary.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/dsrbench" .) >&2
# The benchmark runs its Go code on one thread (see procs in main.go);
# pinning the process to the first CPU it may use keeps the kernel's
# share of a shard round trip on that CPU too, so the engine and the
# BFS it is compared with get the same processor. Where taskset is
# missing or may not pin, it runs unpinned.
pin=()
if cpus=$(taskset -pc $$ 2>/dev/null); then
	cpu=${cpus##*: }
	cpu=${cpu%%[-,]*}
	if taskset -c "$cpu" true 2>/dev/null; then
		pin=(taskset -c "$cpu")
	fi
fi
exec ${pin[@]+"${pin[@]}"} "$out/dsrbench" "$@"
