#!/bin/sh
# Measure the kernel + campaign perf trajectory into BENCH_*.json at
# the repo root, under a pinned environment (fixed thread count, no
# ISA override -- the benches force ISAs internally via
# kernels::setActive). Run from anywhere.
#
#   scripts/run_bench.sh [--compare [BASELINE_DIR]]
#
# With --compare, additionally gate the fresh numbers against the
# committed baselines (bench/baselines/ by default) using
# bench_compare in relative-to-scalar mode, so the comparison
# survives a machine change; exit non-zero on a confirmed >15%
# regression of any SIMD speedup.
set -eu

cd "$(dirname "$0")/.."

COMPARE=0
BASELINE_DIR=bench/baselines
if [ "${1:-}" = "--compare" ]; then
    COMPARE=1
    [ -n "${2:-}" ] && BASELINE_DIR=$2
fi

cmake -B build -S . >/dev/null
cmake --build build --target bench_kernels bench_campaign \
    bench_event bench_analysis bench_serving bench_chaos \
    bench_compare -j >/dev/null

# Pinned measurement environment: one worker thread (the kernels are
# the subject, not the pool) and no ambient ISA override -- a set
# INCA_KERNEL_ISA would make setActive-forced runs misleading.
unset INCA_KERNEL_ISA INCA_TRACE INCA_METRICS || true
export INCA_NUM_THREADS=1

measure() {
    ./build/bench/bench_kernels --json BENCH_kernels.json
    ./build/bench/bench_campaign --json BENCH_campaign.json
    ./build/bench/bench_event --json BENCH_event.json
    ./build/bench/bench_analysis --json BENCH_analysis.json
    ./build/bench/bench_serving --json BENCH_serving.json
    ./build/bench/bench_chaos --json BENCH_chaos.json
    echo "wrote BENCH_kernels.json BENCH_campaign.json" \
        "BENCH_event.json BENCH_analysis.json BENCH_serving.json" \
        "BENCH_chaos.json"
}

# Gate on the per-benchmark SIMD speedup (vector time / scalar time
# measured in the same run): machine-wide throughput drift between
# the baseline machine and this one cancels per benchmark, so the
# 15% threshold gates the speedup shape the kernel overhaul claims,
# not the host's mood. Every gate runs and prints its verdict; the
# call fails afterwards if any of them failed.
compare_once() {
    failed=""
    for bench in kernels campaign event analysis serving chaos; do
        echo "== BENCH_$bench =="
        ./build/bench/bench_compare "$BASELINE_DIR/BENCH_$bench.json" \
            "BENCH_$bench.json" --threshold 0.15 --relative-to-scalar ||
            failed="$failed $bench"
    done
    if [ -n "$failed" ]; then
        echo "failed gates:$failed"
        return 1
    fi
    echo "all gates passed"
}

measure

if [ "$COMPARE" = 1 ]; then
    # A single noisy run on a busy machine can cross the 15% line
    # without any code change; a real regression crosses it every
    # time. Confirm before failing: re-measure once and only report
    # a regression when both measurements agree.
    if ! compare_once; then
        echo "possible regression; re-measuring to confirm..."
        measure
        compare_once
    fi
fi
