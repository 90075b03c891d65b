#!/bin/sh
# Tier-1 check wrapper: configure, build, and run the test suite.
#
# Usage:
#   tools/check.sh            # full suite
#   tools/check.sh --quick    # only tests labeled "quick"
#   tools/check.sh --bench    # golden-fingerprint suite + speed
#                             # gate against git HEAD (contract below)
#   tools/check.sh --faults   # build + run the fault-storm soak (the
#                             # graceful-degradation contracts; nonzero
#                             # exit on any violation)
#   tools/check.sh --vf       # build + run the VF isolation soak (the
#                             # vnic blast-radius contracts; nonzero
#                             # exit on any violation)
#   tools/check.sh --fleet    # fleet smoke: run the fleet unit/
#                             # determinism suite and the 2-thread
#                             # golden fleet ring, then the quick fleet
#                             # soak (scaling + thread-count
#                             # determinism contracts; nonzero exit on
#                             # any violation)
#   tools/check.sh --chaos    # fleet fault-domain smoke: run the
#                             # chaos unit suite (fault injector,
#                             # health monitor, reliable delivery),
#                             # then the quick chaos soak (zero e2e
#                             # loss, exact recovery accounting,
#                             # chaos determinism; nonzero exit on
#                             # any violation)
#   TENGIG_SANITIZE=ON tools/check.sh
#                             # ASan+UBSan build in a separate tree
#   TENGIG_TSAN=ON tools/check.sh --fleet
#                             # ThreadSanitizer build in a separate
#                             # tree (the fleet worker pool is the only
#                             # multithreaded simulation path)
#
# Extra arguments after --quick are passed through to ctest
# (e.g. tools/check.sh -R Traffic).
#
# --bench contract
# ----------------
# The gate measures what the repository benchmark measures
# (nicbench/run.py, BENCHMARK.json), on both sides, on this machine,
# in this session.  It never compares against a committed number: host
# speed differs between machines and drifts with a shared host's load.
#
#   HEAD   the committed tree (git HEAD), unpacked with git archive into
#          <build>/benchref/src/ (reused while HEAD is unchanged)
#   tree   the working tree
#
# Each side's run.py builds nicbench into that tree's own .bench_build/.
# The golden-fingerprint suite (tests/test_golden) runs first: a speed
# number means nothing until every bench workload shape reproduces its
# committed results, stat-tree and trace fingerprints.  Then five
# alternating pairs of `run.py --workload all --seconds 5` run (both
# fixed in the script, not settable), HEAD first in odd pairs and the
# working tree first in even ones, and tools/bench_gate.py compares
# them.  It prints, for each workload and
# end-to-end metric, both medians, their quartiles, the ratio and the
# pairs the working tree won.  The gate fails (exit 1) when
#
#   - any run exits nonzero (a correctness check failed);
#   - a workload's median sim_us_per_ref_s is below 0.90x HEAD's;
#   - any other end-to-end metric in BENCHMARK.json is worse than HEAD's
#     median by more than that metric's bound;
#   - there is no git HEAD to measure against.
#
# sim_us_per_ref_s is simulated time per second of a fixed reference
# kernel timed around each repeat, which slows down with the host; its
# quartile spread over repeated runs is a few percent, where simulated
# time per host second spreads 15-28%.

set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
sanitize=${TENGIG_SANITIZE:-OFF}
tsan=${TENGIG_TSAN:-OFF}

build="$repo/build"
if [ "$sanitize" = "ON" ]; then
    build="$repo/build-asan"
fi
if [ "$tsan" = "ON" ]; then
    build="$repo/build-tsan"
fi

if [ "${1:-}" = "--bench" ]; then
    # Speed gate; see the header contract.
    pairs=5
    seconds=5
    head_commit=$(git -C "$repo" rev-parse --verify -q HEAD 2>/dev/null || true)
    if [ -z "$head_commit" ]; then
        echo "check.sh --bench: no git HEAD to measure against" >&2
        exit 1
    fi

    # Behaviour first: no speed number means anything until every
    # golden fingerprint still matches.
    cmake -B "$build" -S "$repo" -DTENGIG_SANITIZE="$sanitize" \
        -DTENGIG_TSAN="$tsan"
    cmake --build "$build" -j"$(nproc)" --target test_golden
    "$build/tests/test_golden"

    refdir="$build/benchref"
    if [ ! -f "$refdir/.ref-commit" ] ||
       [ "$(cat "$refdir/.ref-commit")" != "$head_commit" ]; then
        rm -rf "$refdir"
        mkdir -p "$refdir/src"
        git -C "$repo" archive "$head_commit" | tar -x -C "$refdir/src"
        printf '%s\n' "$head_commit" > "$refdir/.ref-commit"
    fi

    out="$build/benchgate"
    rm -rf "$out"
    mkdir -p "$out"
    # One run of `run.py --workload all` in tree $1, stdout to file $2.
    bench_run() {
        if ! (cd "$1" && python3 nicbench/run.py --workload all \
                --seconds "$seconds") > "$2"; then
            tail -n 40 "$2"
            echo "FAIL: nicbench/run.py exited nonzero in $1" \
                "(report: $2)" >&2
            exit 1
        fi
    }
    pair=1
    while [ "$pair" -le "$pairs" ]; do
        echo "bench pair $pair/$pairs"
        if [ $((pair % 2)) -eq 1 ]; then
            bench_run "$refdir/src" "$out/head-$pair.txt"
            bench_run "$repo" "$out/tree-$pair.txt"
        else
            bench_run "$repo" "$out/tree-$pair.txt"
            bench_run "$refdir/src" "$out/head-$pair.txt"
        fi
        pair=$((pair + 1))
    done
    echo "HEAD $head_commit against the working tree:"
    exec python3 "$repo/tools/bench_gate.py" --head "$out"/head-*.txt \
        --tree "$out"/tree-*.txt
fi

if [ "${1:-}" = "--faults" ]; then
    # Fault-injection soak: the bench itself asserts the degradation
    # contracts (zero corrupted payloads, full fault accounting, >= 95%
    # post-storm recovery) and exits nonzero on any violation.
    cmake -B "$build" -S "$repo" -DTENGIG_SANITIZE="$sanitize" \
        -DTENGIG_TSAN="$tsan"
    cmake --build "$build" -j"$(nproc)" --target fault_storm
    exec "$build/bench/fault_storm" "--json=$build/BENCH_fault_storm.json"
fi

if [ "${1:-}" = "--vf" ]; then
    # VF isolation soak: the bench asserts the blast-radius contracts
    # (victim >= 95% of solo under a neighbor storm, weighted shares
    # within 5%, per-tenant fault accounting exact) and exits nonzero
    # on any violation.
    cmake -B "$build" -S "$repo" -DTENGIG_SANITIZE="$sanitize" \
        -DTENGIG_TSAN="$tsan"
    cmake --build "$build" -j"$(nproc)" --target vf_isolation
    exec "$build/bench/vf_isolation" "--json=$build/BENCH_vf_isolation.json"
fi

if [ "${1:-}" = "--fleet" ]; then
    # Fleet smoke: the unit/determinism suite first (switch model,
    # config validation, bit-identical results across thread counts),
    # then the golden 2-thread ring (its committed fingerprints), then
    # the quick soak, which asserts the scaling and 1-vs-4-thread
    # determinism contracts itself and exits nonzero on any violation.
    cmake -B "$build" -S "$repo" -DTENGIG_SANITIZE="$sanitize" \
        -DTENGIG_TSAN="$tsan"
    cmake --build "$build" -j"$(nproc)" --target test_fleet \
        --target test_golden --target fleet
    "$build/tests/test_fleet"
    "$build/tests/test_golden" --gtest_filter=Golden.FleetRing
    exec "$build/bench/fleet" --quick "--json=$build/BENCH_fleet.smoke.json"
fi

if [ "${1:-}" = "--chaos" ]; then
    # Fleet fault-domain smoke: the unit suite first (fault-plan
    # validation, deterministic/decorrelated fault streams, health
    # monitoring, paced posting, small recovery runs), then the quick
    # chaos soak, which asserts the storm/recovery contracts itself
    # and exits nonzero on any violation.
    cmake -B "$build" -S "$repo" -DTENGIG_SANITIZE="$sanitize" \
        -DTENGIG_TSAN="$tsan"
    cmake --build "$build" -j"$(nproc)" --target test_fleet_chaos \
        --target fleet_chaos
    "$build/tests/test_fleet_chaos"
    exec "$build/bench/fleet_chaos" --quick \
        "--json=$build/BENCH_fleet_chaos.smoke.json"
fi

ctest_args="--output-on-failure -j$(nproc)"
if [ "${1:-}" = "--quick" ]; then
    shift
    ctest_args="$ctest_args -L quick"
fi

cmake -B "$build" -S "$repo" -DTENGIG_SANITIZE="$sanitize" \
        -DTENGIG_TSAN="$tsan"
cmake --build "$build" -j"$(nproc)"
cd "$build"
# shellcheck disable=SC2086
exec ctest $ctest_args "$@"
