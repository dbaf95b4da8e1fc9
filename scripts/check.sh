#!/usr/bin/env bash
# Tier-1 verification: lints + build + full test suite.
#
#   lint     scripts/lint.sh — whitespace, the determinism linter (with
#            its fixture self-test), and clang-tidy when installed. Runs
#            first because it fails in seconds.
#   release  RelWithDebInfo build + full ctest — what the benchmarks and
#            figure reproductions run as.
#   asan     AddressSanitizer + UndefinedBehaviorSanitizer build — catches
#            the class of bug the event-pool/packet-pool refactor could
#            introduce (use-after-free through recycled slots, OOB heap
#            positions). float-cast-overflow is named on its own: GCC's
#            -fsanitize=undefined leaves out the trap for a double cast to
#            an integer type that cannot hold it (a grid value such as
#            replicas=1e10). -D_GLIBCXX_ASSERTIONS bounds-checks operator[] on
#            the standard containers and spans (the network's flat node,
#            link, adjacency and route arrays) as well. A Debug build, so
#            asserts stay on, at -O1, the level ASan documents for usable
#            speed: at -O0 the longest replay nearly filled its timeout.
#            The same flags then build perfbench/ and run its tiny-workload
#            test, which drives all four workloads (churn included) through
#            the public Cloud API and the links' lazily created ports.
#   tsan     ThreadSanitizer build of the multithreaded surface — the sweep
#            runner shards simulation runs across threads, so its worker
#            pool, the shared logger, and cross-instance Simulator isolation
#            are validated under TSan. Configured with
#            -DSCDA_RUNNER_TESTS_ONLY=ON so ctest in that tree runs exactly
#            test_runner plus the (multithreaded) scda-sweep smoke tests.
#   outputs  the exact-output oracle outside ctest, which CI runs in its
#            bench jobs: a Release bench_churn whose checksum and every
#            cell must equal BENCH_churn.json (scripts/bench_gate.py
#            --churn-input), and perfbench/run.py --seconds 0 on all four
#            workloads, each of which must match perfbench/expected.json.
#
# Usage: scripts/check.sh [extra ctest args...]
#   CHECK_PASSES=lint,release,asan,tsan,outputs  comma-separated pass
#                                    selector (default: all five). CI
#                                    shards the ctest passes onto its own
#                                    jobs with this knob; run locally with
#                                    no env for the full sequence.
#
# Builds live in build-check/, build-check-asan/,
# build-check-asan-perfbench/, build-check-tsan/, build-check-bench/ and
# build-check-perfbench/ so they never disturb an existing build/ tree.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
PASSES="${CHECK_PASSES:-lint,release,asan,tsan,outputs}"

want() { case ",$PASSES," in *",$1,"*) return 0 ;; *) return 1 ;; esac; }

run_suite() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@" > /dev/null
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

want lint && {
  echo "== pass: lint (whitespace + determinism + clang-tidy if present) =="
  scripts/lint.sh build-check
}

want release && {
  echo "== pass: release (RelWithDebInfo) =="
  run_suite build-check -DCMAKE_BUILD_TYPE=RelWithDebInfo
}

want asan && {
  echo "== pass: ASan + UBSan =="
  asan_flags=(
    -DCMAKE_BUILD_TYPE=Debug
    -DCMAKE_CXX_FLAGS="-O1 -fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=all -D_GLIBCXX_ASSERTIONS"
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined,float-cast-overflow"
  )
  run_suite build-check-asan "${asan_flags[@]}"
  echo "== pass: ASan + UBSan (perfbench tiny workloads) =="
  cmake -B build-check-asan-perfbench -S perfbench "${asan_flags[@]}" \
    > /dev/null
  cmake --build build-check-asan-perfbench -j "$JOBS"
  ctest --test-dir build-check-asan-perfbench --output-on-failure
}

want tsan && {
  echo "== pass: TSan (runner + sweep tool tests) =="
  cmake -B build-check-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSCDA_RUNNER_TESTS_ONLY=ON \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" > /dev/null
  # Only the multithreaded targets: test_runner and the CLI tools the
  # smoke tests run (scda-sweep shards runs over a worker pool).
  cmake --build build-check-tsan -j "$JOBS" \
    --target test_runner scda_sim_cli scda_topo_cli scda_sweep_cli
  ctest --test-dir build-check-tsan --output-on-failure -j "$JOBS"
}

want outputs && {
  echo "== pass: outputs (BENCH_churn gate + perfbench correctness) =="
  cmake -B build-check-bench -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build build-check-bench -j "$JOBS" --target bench_churn
  build-check-bench/bench/bench_churn > build-check-bench/bench_churn.json
  python3 scripts/bench_gate.py \
    --churn-input build-check-bench/bench_churn.json
  for w in packet-scda fluid-scale churn-storage packet-randtcp; do
    CARGO_TARGET_DIR=build-check-perfbench \
      python3 perfbench/run.py --workload "$w" --seconds 0
  done
}

echo "All requested passes (${PASSES}) passed."
