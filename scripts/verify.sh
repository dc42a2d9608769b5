#!/usr/bin/env bash
# Tier-1 verification plus sanitizer and Release-config perf stages.
#
# 1. Configure + build + ctest in the default (RelWithDebInfo) tree —
#    exactly the ROADMAP tier-1 command, with PINSIM_WERROR=ON so the
#    hardened warning set (-Wall -Wextra -Wshadow -Wnon-virtual-dtor
#    -Wold-style-cast) is zero-tolerance, and with the pinsim_lint
#    tree scan and fixture suite running as ctests (determinism /
#    ordering / index-safety / hygiene invariants).
# 2. Build + run the tier-1 tests under ASan+UBSan (the indexed-heap
#    runqueue and the flat cgroup slice arrays index by raw task/cpu
#    ids; the sanitizers catch any stale-index use the unit tests
#    would miss). Skip with PINSIM_SKIP_SANITIZERS=1 for a quick
#    pass.
# 3. Build + run the parallel-harness tests under ThreadSanitizer
#    (util::ThreadPool, ExperimentRunner::measure_all, and the
#    barrier-synchronized sim::ShardedEngine round loop are the only
#    concurrent code in the tree; TSan is the only tool that proves
#    the sweep protocol and the shard workers race-free). Skipped
#    together with the other sanitizers via PINSIM_SKIP_SANITIZERS=1.
# 4. Build micro_engine + micro_sched + micro_cluster in a Release
#    tree so perf-relevant flags (-O2 -DNDEBUG) compile on every
#    change, and run the micro suites once, writing machine-readable
#    timings to BENCH_engine_latest.json, BENCH_sched_latest.json,
#    BENCH_timer_latest.json (the timer-path subset tracked by
#    BENCH_timer.json) and BENCH_cluster_latest.json — all
#    gitignored; diff against the committed BENCH_*.json snapshots
#    when touching hot paths. The tier-1 stage also archives the lint
#    report (findings + per-rule counts + scan wall time) to the
#    gitignored LINT_latest.json.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier-1: configure + build + ctest (warnings are errors) =="
cmake -B build -S . -DPINSIM_WERROR=ON
cmake --build build -j
(cd build && ctest --output-on-failure -j --timeout 300)

echo "== lint report (LINT_latest.json) =="
# Archive the machine-readable lint report (findings, per-rule counts,
# scan wall time) next to the BENCH_*_latest.json artifacts. The tree
# is expected clean — findings fail this stage like a test failure.
./build/tools/lint/pinsim_lint --root . --json > LINT_latest.json

if [[ "${PINSIM_SKIP_SANITIZERS:-0}" != "1" ]]; then
  echo "== tier-1 under ASan+UBSan =="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  cmake --build build-asan --target pinsim_tests pinsim_examples \
    pinsim_lint pinsim_lint_tests -j
  # This tree builds no bench binaries, so the "bench" label (golden
  # stdout hashes, CLI rejection) runs in the tier-1 stage only.
  (cd build-asan && ctest --output-on-failure -j --timeout 300 -LE bench)

  echo "== parallel harness under TSan =="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
  cmake --build build-tsan --target pinsim_tests -j
  ./build-tsan/tests/pinsim_tests \
    --gtest_filter='ThreadPoolTest.*:ExperimentParallelTest.*:ShardedEngine*.*:ClusterFleetTest.*'
fi

echo "== Release build of the micro-benchmarks =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release --target micro_engine micro_sched \
  micro_cluster -j

echo "== engine micro smoke (BENCH_engine_latest.json) =="
./build-release/bench/micro_engine \
  --benchmark_filter='BM_Engine|BM_Boundary|BM_ThreadPool' \
  --benchmark_out=BENCH_engine_latest.json \
  --benchmark_out_format=json

echo "== scheduler micro smoke (BENCH_sched_latest.json) =="
./build-release/bench/micro_sched \
  --benchmark_out=BENCH_sched_latest.json \
  --benchmark_out_format=json

echo "== timer-path micro smoke (BENCH_timer_latest.json) =="
./build-release/bench/micro_engine \
  --benchmark_filter='BM_BoundaryChurn|BM_EngineReschedule' \
  --benchmark_out=BENCH_timer_latest.json \
  --benchmark_out_format=json

echo "== cluster micro smoke (BENCH_cluster_latest.json) =="
./build-release/bench/micro_cluster \
  --benchmark_out=BENCH_cluster_latest.json \
  --benchmark_out_format=json

echo "verify: OK"
