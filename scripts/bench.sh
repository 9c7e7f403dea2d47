#!/usr/bin/env bash
# Benchmark-regression harness: runs every paper-artefact benchmark three
# times with allocation reporting and writes BENCH_sweep.json, recording the
# best (minimum) ns/op per benchmark alongside B/op and allocs/op. Compare
# the file against a previous run to spot hot-path regressions.
#
# Usage: scripts/bench.sh [output.json] [bench-regex]
#   scripts/bench.sh                                  # sweep benches → BENCH_sweep.json
#   scripts/bench.sh lint                             # the dhllint engine → BENCH_lint.json
#   scripts/bench.sh kernel                           # event-kernel hot path and shuttle overheads → BENCH_kernel.json
#   scripts/bench.sh repro [runs] [base-rev]          # dhlrepro wall time → BENCH_repro.json
#
# The sweep (no bench-regex given) skips the benchmarks the kernel and
# lint modes own, so each benchmark is recorded in one file only.
#
# The kernel mode runs the event-kernel pair (burst and steady-state),
# the shuttle baseline (BenchmarkSystemSimulation: no faults, no
# telemetry), the two telemetry-enabled shuttles, the shuttle with an
# armed empty fault script and the shuttle under the rough-day chaos
# scenario. It runs each row 10 times and records the median ns/op, where
# the other modes record the best of 3. Every mode interleaves its runs:
# each pass runs every row once, so drift on a shared host widens every
# row's spread alike rather than shifting one row against another. Kernel
# rows gain an events_per_sec field, and the output three overheads of
# medians against the one baseline: overhead_pct (warm telemetry-enabled shuttle, the pooled-Set
# operating mode), overhead_cold_pct (fresh Set per run) and
# faults_overhead_pct (armed empty script: the injector's own cost, which
# the acceptance target keeps under 10 %). Beside each, <overhead>_spread_pct
# is the baseline's own max-min spread over its 10 runs, as a percentage of
# its median: an overhead inside that spread is not resolved.
#
# The lint mode adds a notes field when GOMAXPROCS is 1, so a recorded
# no-speedup parallel run names its cause (a single-core host) instead of
# looking like a pool bug.
#
# Every mode records the host beside the results: cpu, gomaxprocs, the Go
# version and the commit (`git rev-parse HEAD`, with a -dirty suffix when
# tracked files other than BENCH_*.json differ from it).
#
# Every mode measures the code's speed. The simulators' model outputs
# (sim-time transits, goodput, shed counts) are deterministic and pinned
# byte for byte by go test instead: cmd/dhlsim's TestMetricsGoldens and
# cmd/dhlload's TestReportGoldens.
#
# The repro mode times the end-to-end `dhlrepro` process: it builds
# cmd/dhlrepro, runs it `runs` times (default 30) writing every artefact
# into a temp dir, and records the median and quartiles of the wall time
# in milliseconds with the same host header as the Go-benchmark modes.
# Given a base revision it also builds that revision's dhlrepro (from a
# `git archive` copy) and alternates the two binaries run by run, so both
# sides see the same host noise; the base side is recorded under
# "baseline".
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "repro" ]]; then
    out="BENCH_repro.json"
    runs="${2:-30}"
    base="${3:-}"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    go build -o "$tmp/head" ./cmd/dhlrepro
    sides=(head)
    if [[ -n "$base" ]]; then
        base_commit="$(git rev-parse "$base")"
        mkdir "$tmp/src"
        git archive "$base_commit" | tar -x -C "$tmp/src"
        (cd "$tmp/src" && go build -o "$tmp/base" ./cmd/dhlrepro)
        sides=(base head)
    fi
    for ((i = 0; i < runs; i++)); do
        for side in "${sides[@]}"; do
            start=$EPOCHREALTIME
            "$tmp/$side" -out "$tmp/out-$side" > /dev/null
            end=$EPOCHREALTIME
            awk -v s="$start" -v e="$end" 'BEGIN { printf "%.3f\n", (e - s) * 1000 }' >> "$tmp/$side.ms"
        done
    done
    if [[ -n "$base" ]] && ! diff -r "$tmp/out-base" "$tmp/out-head" > /dev/null; then
        echo "bench.sh: note: $base and this checkout write different artefacts" >&2
    fi
    commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
    if [[ "$commit" != unknown ]] && ! git diff --quiet HEAD -- . ':(exclude)BENCH_*.json'; then
        commit="$commit-dirty"
    fi
    # quartiles prints {"median", "q1", "q3"} of one side's sorted times,
    # interpolating linearly between ranks.
    quartiles() {
        sort -n "$1" | awk '{ v[NR] = $1 }
            function q(p,  r, lo) { r = 1 + p * (NR - 1); lo = int(r); return v[lo] + (r - lo) * (v[lo + 1] - v[lo]) }
            END { v[NR + 1] = v[NR]; printf "{\"median\": %.3f, \"q1\": %.3f, \"q3\": %.3f}", q(0.5), q(0.25), q(0.75) }'
    }
    cpu="$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || echo unknown)"
    {
        printf '{\n'
        printf '  "cpu": "%s",\n' "$cpu"
        printf '  "gomaxprocs": %d,\n' "${GOMAXPROCS:-$(nproc)}"
        printf '  "go": "%s",\n' "$(go env GOVERSION)"
        printf '  "commit": "%s",\n' "$commit"
        printf '  "runs": %d,\n' "$runs"
        printf '  "dhlrepro_ms": %s' "$(quartiles "$tmp/head.ms")"
        if [[ -n "$base" ]]; then
            printf ',\n  "baseline": {"commit": "%s", "dhlrepro_ms": %s}' "$base_commit" "$(quartiles "$tmp/base.ms")"
        fi
        printf '\n}\n'
    } > "$out"
    echo "wrote $out ($runs runs per side)"
    exit 0
fi

out="${1:-BENCH_sweep.json}"
pattern="${2:-.}"
skip=""
kernel=0
lint=0
count=3
if [[ "${1:-}" == "kernel" ]]; then
    out="BENCH_kernel.json"
    count=10
    pattern="BenchmarkEventKernel(SteadyState)?$|BenchmarkSystemSimulation$|BenchmarkShuttleTelemetry(Enabled|EnabledCold)$|BenchmarkShuttleArmedEmptyScript$|BenchmarkChaosShuttle$"
    kernel=1
elif [[ "${1:-}" == "lint" ]]; then
    out="BENCH_lint.json"
    pattern="BenchmarkLintModule(Sequential|Parallel)$"
    lint=1
elif [[ -z "${2:-}" ]]; then
    skip="^(BenchmarkSystemSimulation|BenchmarkShuttle.*|BenchmarkChaosShuttle|BenchmarkEventKernel.*|BenchmarkLintModule.*)$"
fi
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# Interleave the rows: each pass runs every row once, so host drift over
# the run lands in every row's spread (the kernel baseline's included)
# instead of between rows.
for ((pass = 1; pass <= count; pass++)); do
    go test -run=NONE -bench="$pattern" -skip="$skip" -benchmem -count=1 . | tee -a "$raw"
done

commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if [[ "$commit" != unknown ]] && ! git diff --quiet HEAD -- . ':(exclude)BENCH_*.json'; then
    commit="$commit-dirty"
fi

awk -v gomaxprocs="${GOMAXPROCS:-$(nproc)}" -v gover="$(go env GOVERSION)" -v commit="$commit" \
    -v kernel="$kernel" -v lint="$lint" -v count="$count" '
/^Benchmark/ {
    # BenchmarkName-N  iters  ns/op  B/op  allocs/op
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = $3 + 0
    bytes = $5 + 0
    allocs = $7 + 0
    if (!(name in best) || ns < best[name]) {
        best[name] = ns
        bop[name] = bytes
        aop[name] = allocs
    }
    if (!(name in worst) || ns > worst[name]) worst[name] = ns
    runs[name, ++nrun[name]] = ns
    if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
}
# median sorts the runs of one benchmark (insertion sort) and returns the middle
# value, or the mean of the two middle values.
function median(name,    i, j, k, v, m) {
    m = nrun[name]
    for (i = 1; i <= m; i++) {
        v = runs[name, i]
        for (j = i - 1; j >= 1 && sorted[j] > v; j--) sorted[j + 1] = sorted[j]
        sorted[j + 1] = v
    }
    k = int((m + 1) / 2)
    return (m % 2) ? sorted[k] : (sorted[k] + sorted[k + 1]) / 2
}
/^cpu:/ { cpu = $0; sub(/^cpu: */, "", cpu) }
END {
    printf "{\n"
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"gomaxprocs\": %d,\n", gomaxprocs
    printf "  \"go\": \"%s\",\n", gover
    printf "  \"commit\": \"%s\",\n", commit
    printf "  \"count\": %d,\n", count
    printf "  \"benchmarks\": [\n"
    # The recorded ns/op: the median in kernel mode, else the best run.
    for (i = 1; i <= n; i++)
        stat[order[i]] = kernel ? median(order[i]) : best[order[i]]
    # Events fired per benchmark iteration, for the kernel throughput rows.
    evop["BenchmarkEventKernel"] = 1000
    evop["BenchmarkEventKernelSteadyState"] = 16384
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    {\"name\": \"%s\", \"ns_per_op\": %.1f, \"bytes_per_op\": %d, \"allocs_per_op\": %d", \
            name, stat[name], bop[name], aop[name]
        if (kernel && (name in evop) && stat[name] > 0)
            printf ", \"events_per_sec\": %.0f", evop[name] / stat[name] * 1e9
        printf "}%s\n", (i < n ? "," : "")
    }
    printf "  ]"
    if (lint && gomaxprocs == 1) {
        printf ",\n  \"notes\": \"BenchmarkLintModuleParallel shows no speedup over Sequential on this machine because the benchmark host is single-core (GOMAXPROCS=1): the GOMAXPROCS-bounded pool degenerates to one worker, so both benches run the identical sequential schedule. The pool itself adds <3%% overhead at worker count 1; TestParallelMatchesSequential pins that worker count never changes output. Re-measure on a multi-core host to see pool scaling.\""
    }
    if (kernel && ("BenchmarkSystemSimulation" in stat) && ("BenchmarkShuttleTelemetryEnabled" in stat)) {
        off = stat["BenchmarkSystemSimulation"]
        spread = (worst["BenchmarkSystemSimulation"] - best["BenchmarkSystemSimulation"]) / off * 100
        split("overhead BenchmarkShuttleTelemetryEnabled overhead_cold BenchmarkShuttleTelemetryEnabledCold faults_overhead BenchmarkShuttleArmedEmptyScript", pair, " ")
        for (i = 1; i < 6; i += 2) {
            if (!(pair[i + 1] in stat)) continue
            printf ",\n  \"%s_pct\": %.2f", pair[i], (stat[pair[i + 1]] - off) / off * 100
            printf ",\n  \"%s_spread_pct\": %.2f", pair[i], spread
        }
    }
    printf "\n}\n"
}' "$raw" > "$out"

if ((kernel)); then
    echo "wrote $out ($(grep -c '"name"' "$out") benchmarks, median of $count)"
else
    echo "wrote $out ($(grep -c '"name"' "$out") benchmarks, best of $count)"
fi
