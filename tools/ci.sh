#!/usr/bin/env bash
# CI driver: full build + test on the default preset, then targeted
# sanitizer passes over the concurrency-sensitive suites (thread pool,
# distance cache, sharded verifier, fault-injection sweeps) with
# ThreadSanitizer and AddressSanitizer+UBSan. Mirrors what a GitHub
# Actions job would run. The fault suites are also tagged for quick
# selection with `ctest -L faults`, the artifact-corruption suites
# (seeded chaos harness + CLI integrity checks) with `ctest -L chaos`,
# and the serving-daemon suites (wire protocol, accept loop, hot reload)
# with `ctest -L serve`. The live-churn repair suites (incremental-repair
# differential oracle + churn chaos sweep) answer to `ctest -L churn`.
#
#   tools/ci.sh            # default + tsan + asan
#   tools/ci.sh default    # just one stage
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
STAGES=("$@")
if [ ${#STAGES[@]} -eq 0 ]; then
  STAGES=(default tsan asan)
fi

# The sanitizer stages only need the suites they gate on; building
# everything under TSan would double CI time for no coverage. The bitio,
# graph and landmark suites index raw words, and the scheme suites drive
# compiled forms that index rank directories and packed words unchecked
# once validation passes, so an off-by-one there is an out-of-bounds read
# that only ASan reliably catches.
SANITIZED_TARGETS=(bitio_test graph_test landmark_test schemes_test
  hierarchical_test parallel_test distance_cache_test verifier_test
  faults_test resilience_test obs_test instrumentation_test
  serialization_test chaos_test fuzz_test fastpath_test rank_select_test
  serve_test serve_chaos_test topology_test tz_test congest_test
  congest_chaos_test churn_test churn_chaos_test)

for stage in "${STAGES[@]}"; do
  echo "=== [$stage] configure ==="
  cmake --preset "$stage"
  echo "=== [$stage] build ==="
  if [ "$stage" = default ]; then
    cmake --build --preset "$stage" -j "$JOBS"
  else
    cmake --build --preset "$stage" -j "$JOBS" -- "${SANITIZED_TARGETS[@]}"
  fi
  echo "=== [$stage] test ==="
  ctest --preset "$stage"
  if [ "$stage" = default ]; then
    # Smoke-run the lookup benchmark: the compiled fast paths must stay
    # bit-identical to the decode path (nonzero exit on divergence).
    echo "=== [$stage] bench_lookup --smoke ==="
    ./build/bench/bench_lookup --smoke -o build/BENCH_lookup_smoke.json
    # Smoke-run the serving benchmark: self-hosts a server on a Unix
    # socket and checks served answers against the local oracle.
    echo "=== [$stage] bench_serving --smoke ==="
    ./build/bench/bench_serving --smoke -o build/BENCH_serving_smoke.json
    # Smoke-run the related-work sweep: every scheme must deliver within
    # the stretch-3 bound on every topology family (nonzero exit if not).
    echo "=== [$stage] bench_related_work --smoke ==="
    ./build/bench/bench_related_work --smoke \
      -o build/BENCH_related_work_smoke.json
    # Smoke-run the CONGEST construction sweep: the three distributed
    # protocols must verify and meet their analytic round/bit bounds.
    echo "=== [$stage] bench_construction --smoke ==="
    ./build/bench/bench_construction --smoke \
      -o build/BENCH_construction_smoke.json
    # Smoke-run the churn-repair sweep: every quiesce point must match a
    # fresh centralized build and incremental repair must beat the
    # rebuild baseline on at least one family (nonzero exit if not).
    echo "=== [$stage] bench_churn --smoke ==="
    ./build/bench/bench_churn --smoke -o build/BENCH_churn_smoke.json
    # Smoke-run the end-to-end benchmark (its own CMake project, Release):
    # every workload's gates on n = 64 graphs, including the catalog gate
    # (route_batch answers after a reload must equal the in-memory
    # schemes').
    echo "=== [$stage] optrt_bench --smoke ==="
    cmake -S optrt_bench -B build-bench -DCMAKE_BUILD_TYPE=Release
    cmake --build build-bench -j "$JOBS" --target optrt_bench
    ./build-bench/optrt_bench --smoke --workdir build-bench/smoke.work
  fi
done

echo "CI: all stages passed (${STAGES[*]})"
