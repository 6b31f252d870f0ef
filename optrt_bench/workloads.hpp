// The four optrt_bench workloads and the helpers they share.
//
// Every workload follows the same shape: set up several times (each
// set-up timed, the last one kept), run warm-up ops whose numbers are
// dropped, then measure ops in rounds until Options::seconds have passed.
// Inputs derive from Options::seed through core::point_seed; the library
// only ever sees the generated inputs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bitio/bit_vector.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "harness.hpp"
#include "model/scheme.hpp"

namespace optrt::bench {

/// What a workload gets from the harness.
struct Context {
  const Options& opt;
  Tracer& tracer;
  std::string dir;  ///< private working directory: artifacts, the socket
};

struct Workload {
  const char* name;
  const char* why;
  RunData (*run)(const Context&);
};

/// In report order. Names are final: later changes cite them.
[[nodiscard]] const std::vector<Workload>& workloads();

RunData run_serve_bulk(const Context& ctx);
RunData run_catalog(const Context& ctx);
RunData run_churn_tz(const Context& ctx);
RunData run_congest_tz(const Context& ctx);

/// Independent seed streams, one per input a workload draws.
enum SeedAxis : std::uint64_t {
  kGraphAxis = 1,
  kSchemeAxis = 2,
  kPairsAxis = 3,
  kPlanAxis = 4,
  kTrafficAxis = 5,
};

[[nodiscard]] std::uint64_t derive_seed(const Options& opt, SeedAxis axis,
                                        std::uint64_t index = 0);

/// Certified G(n, 1/2), the paper's random-graph setting.
[[nodiscard]] graph::Graph uniform_graph(std::size_t n, std::uint64_t seed);

/// Barabási–Albert "ba:2" member on n nodes: the first connected one at or
/// after `seed` (TZ needs a connected graph).
[[nodiscard]] graph::Graph power_law_graph(std::size_t n, std::uint64_t seed);

/// schemes::serialize for whichever concrete scheme `scheme` is. Throws
/// std::invalid_argument for a kind without an artifact format.
[[nodiscard]] bitio::BitVector serialize_any(const model::RoutingScheme& scheme);

/// Set-up runs at least kMinSetupReps times (twice per CPU on four) and
/// until kSetupSeconds have passed, at most kMaxSetupReps times; setup_s
/// is the median. A set-up of a few milliseconds needs the extra
/// repetitions, spread over the whole second, for a steady median: capped
/// at 32, churn-tz's 1 ms set-up spread by 0.32 between quartiles of ten
/// runs.
inline constexpr std::size_t kMinSetupReps = 8;
inline constexpr std::size_t kMaxSetupReps = 1024;
inline constexpr double kSetupSeconds = 1.0;

/// Warm-up ops run for this long (at least one) before timing starts.
inline constexpr double kWarmupSeconds = 0.5;

/// A round of measured ops runs on one CPU for this long (at least one op)
/// after one reference_ms() pass there. The reference passes take about a
/// tenth of the measured time; fewer of them leave their median's own
/// sampling error (3 % with 60 passes) above the drift it cancels.
inline constexpr double kRoundSeconds = 0.1;

/// Runs `setup` as above, each time on the next CPU, from a cold distance
/// cache and after destroying the previous state, and records each wall
/// time in data.setup_s (and as a set-up interval of the trace). Returns
/// the last state.
template <typename Setup>
auto repeat_setup(const Context& ctx, RunData& data, Setup&& setup) {
  decltype(setup()) state;
  const auto first = Clock::now();
  for (std::size_t rep = 0; rep < kMaxSetupReps; ++rep) {
    if (rep >= kMinSetupReps && seconds_since(first) >= kSetupSeconds) break;
    state.reset();
    graph::DistanceCache::global().clear();
    pin_process(rep);
    const auto start = Clock::now();
    state = setup();
    data.setup_s.push_back(seconds_since(start));
    ctx.tracer.add_setup(start, Clock::now());
  }
  return state;
}

/// Calls op(false) for kWarmupSeconds, then measures in rounds until
/// Options::seconds of measured time have passed: each round moves the
/// process to the next CPU, records one reference_ms() pass there in
/// data.ref_ms, and calls op(true) for kRoundSeconds. The op records its
/// own op_ms samples, ops and gates; this records the measured wall time
/// without the reference passes.
template <typename Op>
void measure_loop(const Context& ctx, RunData& data, Op&& op) {
  const auto warm = Clock::now();
  do {
    op(false);
  } while (seconds_since(warm) < kWarmupSeconds);
  const auto start = Clock::now();
  double reference_s = 0.0;
  for (std::size_t round = 0; seconds_since(start) < ctx.opt.seconds;
       ++round) {
    pin_process(round);
    const double ref = reference_ms();
    reference_s += ref / 1e3;
    data.ref_ms.push_back(ref);
    const auto round_start = Clock::now();
    do {
      op(true);
    } while (seconds_since(round_start) < kRoundSeconds);
  }
  data.measured_s = seconds_since(start) - reference_s;
  ctx.tracer.add_measure(start, Clock::now());
}

}  // namespace optrt::bench
