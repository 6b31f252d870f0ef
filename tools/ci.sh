#!/usr/bin/env bash
# CI driver: full build + test on the default preset, then targeted
# sanitizer passes over the concurrency-sensitive suites (thread pool,
# distance cache, sharded verifier, fault-injection sweeps) with
# ThreadSanitizer and AddressSanitizer+UBSan; the ASan pass also runs the
# real optrtd daemon end to end (cli_serve_test). Mirrors what a GitHub
# Actions job would run. The fault suites are also tagged for quick
# selection with `ctest -L faults`, the artifact-corruption suites
# (seeded chaos harness + CLI integrity checks) with `ctest -L chaos`,
# and the serving-daemon suites (wire protocol, accept loop, hot reload)
# with `ctest -L serve`. The live-churn repair suites (incremental-repair
# differential oracle + churn chaos sweep) answer to `ctest -L churn`.
#
# The default stage also runs the fourteen paper benches that print
# stdout tables, once each, and fails on a nonzero exit. Several of them
# check what they print and exit 1 on a failed check: Theorem 6's round
# trip, Claim 3's reconstruction and Theorem 8's port-permutation recovery
# (bench_table1_lower), Theorem 9's permutation recovery
# (bench_gb_lowerbound), the Theorem 3-5 stretch bounds
# (bench_stretch_tradeoff), exactness and the round trip
# (bench_full_information), and verify_scheme on every family swept
# (bench_hierarchy, bench_interval). bench_table1_lower,
# bench_average_case and bench_open_cells also run the Theorem 6 codec at
# sizes no test uses. Together they take about a second in Release.
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
# compiled forms that index per-word rank counts, per-node slots and
# packed words unchecked once validation passes, so an off-by-one there
# is an out-of-bounds read that only ASan reliably catches. LiveTopology
# reads its per-arc link state by arc id unchecked, so the fault suites
# run under ASan too. The graph decoder, algorithm and
# simulator suites read neighbors() spans into the one flat CSR array,
# which any add_edge/remove_edge invalidates. The route fingerprints are
# the one suite that pins TZ exit ports, which the landmark BFS derives
# by indexing per-node arrays. A PortAssignment indexes its port arrays
# by arc id unchecked, so its suites run under ASan; copies of one Graph
# share its adjacency block through a reference count, so graph_test's
# cross-thread copy-on-write case runs under TSan. The E(G) decoder
# indexes words of bytes read from disk, so the suites that read .eg
# files (budget_and_io_test) and decode and encode at tiny n
# (edge_cases_test) run under ASan. The serving daemon reuses
# per-connection request, pair, hop and response buffers and checksums
# payloads in place, so the real daemon runs under ASan too:
# cli_serve_test drives optrtd over a Unix socket with `optrt_cli query`
# and `bench_serving --smoke`, which is why those three binaries are
# built here. The compact-node table walk and its one-pass compile read
# artifact bits a word at a time and fill each table's values at computed
# ranks, and value_or reads a packed word at a non-member's rank (the
# slack word past the last member), so compact_node_test, which drives
# the walk and the compile on every table layout and on damaged tables,
# runs under ASan beside rank_select_test. bench_lookup replaces the
# global operator new and delete, the nothrow forms too, to count
# allocations, and the standard library's algorithms allocate through
# them; a counting delete that freed the wrong block escaped every suite
# once, so the asan stage builds bench_lookup and runs it with --smoke.
SANITIZED_TARGETS=(bitio_test graph_test budget_and_io_test edge_cases_test
  ports_labeling_test permutation_code_test algorithms_test landmark_test
  compact_node_test schemes_test hierarchical_test lemma_codecs_test
  theorem_codecs_test theorem9_test theorem7_aggregate_test simulator_test
  parallel_test distance_cache_test verifier_test faults_test
  resilience_test obs_test instrumentation_test serialization_test
  chaos_test fuzz_test fastpath_test rank_select_test serve_test
  serve_chaos_test topology_test tz_test route_fingerprint_test congest_test
  congest_chaos_test churn_test churn_chaos_test optrt_cli optrtd
  bench_serving bench_lookup)

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
  if [ "$stage" = asan ]; then
    echo "=== [$stage] bench_lookup --smoke ==="
    ./build-asan/bench/bench_lookup --smoke -o build-asan/BENCH_lookup_smoke.json
  fi
  if [ "$stage" = default ]; then
    # The paper benches: each exits nonzero on a failed check (see above).
    for bench in table1 table1_lower gb_lowerbound theorem1 theorem2 \
        stretch_tradeoff full_information average_case definition5 \
        open_cells density interval hierarchy congestion; do
      echo "=== [$stage] bench_$bench ==="
      ./build/bench/bench_$bench
    done
    # Smoke-run the lookup benchmark: the compiled fast paths must stay
    # bit-identical to the decode path (nonzero exit on divergence).
    echo "=== [$stage] bench_lookup --smoke ==="
    ./build/bench/bench_lookup --smoke -o build/BENCH_lookup_smoke.json
    # Smoke-run the serving benchmark: self-hosts a server on a Unix
    # socket and checks served answers against the local oracle.
    echo "=== [$stage] bench_serving --smoke ==="
    ./build/bench/bench_serving --smoke -o build/BENCH_serving_smoke.json
    # Regenerate the three deterministic sweeps at full size and hold each
    # to its committed doc byte for byte (rows and metrics are identical
    # across reruns and thread counts). Each also exits nonzero on its own
    # gate: related-work if a scheme breaks the stretch-3 bound on some
    # topology family; construction if a distributed protocol fails to
    # verify or to meet its analytic round/bit bounds; churn if a quiesce
    # point diverges from a fresh centralized build or incremental repair
    # never beats the rebuild baseline.
    for bench in related_work construction churn; do
      echo "=== [$stage] bench_$bench vs BENCH_$bench.json ==="
      ./build/bench/bench_$bench -o "build/BENCH_$bench.json"
      cmp "build/BENCH_$bench.json" "BENCH_$bench.json" || {
        echo "BENCH_$bench.json is stale: regenerate it with bench_$bench"
        exit 1
      }
    done
    # The fault sweep writes its rows and metrics trailer to stdout; only
    # the trailer's `threads` field depends on the thread count, so it is
    # held to the committed doc at --threads 1.
    echo "=== [$stage] bench_failures vs BENCH_failures.jsonl ==="
    ./build/bench/bench_failures --threads 1 > build/BENCH_failures.jsonl
    cmp build/BENCH_failures.jsonl BENCH_failures.jsonl || {
      echo "BENCH_failures.jsonl is stale: regenerate it with" \
        "bench_failures --threads 1"
      exit 1
    }
    # The construction and churn sweeps promise the same bytes at any
    # thread count: the CONGEST engine delivers from its outboxes in range
    # order, which is ascending sender order at any width, and each churn
    # cell runs on its own seeds and counts work, not time.
    for bench in construction churn; do
      for threads in 1 8; do
        echo "=== [$stage] bench_$bench --threads $threads ==="
        ./build/bench/bench_$bench --threads "$threads" \
          -o "build/BENCH_$bench.t$threads.json"
        cmp "build/BENCH_$bench.t$threads.json" "BENCH_$bench.json" || {
          echo "BENCH_$bench.json differs at --threads $threads"
          exit 1
        }
      done
    done
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
