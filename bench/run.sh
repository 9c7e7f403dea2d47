#!/usr/bin/env bash
# Builds dhlbench from source and runs it with the given flags. Run it from
# the repository root:
#
#   bash bench/run.sh --workload campus-chaos --seed 3 --seconds 20 --trace 0
#
# The build cache, temporary files and the binary stay in .bench_build at
# the root, so nothing is written outside the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -f bench/go.mod ]]; then
    echo "run.sh: run from the repository root (go.mod and bench/go.mod not found)" >&2
    exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
    XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C bench build -o "$build/dhlbench" ./dhlbench

# Pin the benchmark, and the twin process it starts, to the last CPU it may
# use. On a shared virtual machine one vCPU can run markedly slower than
# another from one moment to the next; pinned, the repository's code and
# its twin always run on the same one, so their ratio cancels the
# difference.
pin=()
if affinity=$(taskset -pc $$ 2>/dev/null); then
    cpus=${affinity##*: }
    pin=(taskset -c "${cpus##*[,-]}")
else
    echo "run.sh: taskset not available; running unpinned, with noisier timings" >&2
fi
exec "${pin[@]}" "$build/dhlbench" "$@"
