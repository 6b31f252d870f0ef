// Live-churn sessions: seeded fail/repair event streams replayed against a
// routing simulator while a model::RepairableScheme keeps its tables
// converged (ROADMAP item 5a).
//
// A ChurnPlan layers interleaved, timed link (or node) fail/repair events
// on top of the PR-2 FaultPlan machinery: every draw comes from the plan
// seed, so the same spec yields a bit-identical plan — and, because every
// downstream consumer is deterministic, a bit-identical session report —
// on every run, platform, and thread count. Quiesce points mark event
// indices after which the differential oracle
// (schemes::repaired_matches_fresh) must certify the incrementally
// repaired scheme against a fresh centralized build.
//
// run_churn_session is the churn control loop the paper's model implies
// but never spells out: the data plane (Simulator) keeps routing on the
// old tables while the control plane (RepairableScheme) patches them;
// messages resolved between a fault and its repair's activation are the
// staleness window, reported as `stale_sent` and the churn.* metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "model/repairable.hpp"
#include "net/faults.hpp"
#include "net/simulator.hpp"

namespace optrt::net {

/// Knobs for the churn-plan generator. Spec form (CLI/bench):
/// "model[:events[,gap[,quiesce]]]" with model ∈ {uniform, targeted,
/// partition, nodes} — e.g. "uniform:32", "targeted:16,2", or
/// "partition:24,4,6".
struct ChurnOptions {
  std::uint64_t seed = 1;
  /// Fault model choosing the fail-preference order: uniform = seeded
  /// shuffle, targeted = largest degree sum first, partition = cut edges
  /// of a seeded bisection first, nodes = whole-node churn.
  FaultModel model = FaultModel::kUniform;
  std::size_t events = 32;     ///< total fail+repair events
  std::uint64_t mean_gap = 4;  ///< gaps drawn uniform from [1, 2·mean_gap]
  /// Cap on simultaneously-down links (nodes for kNodes); 0 = uncapped.
  std::size_t max_down = 0;
  /// Every quiesce_every-th event (and always the last) becomes a quiesce
  /// point where the differential oracle runs.
  std::size_t quiesce_every = 8;

  /// Stable spec string, e.g. "uniform:32,4,8" — parse(name()) == *this
  /// up to the fields the spec does not carry.
  [[nodiscard]] std::string name() const;

  /// Parses the spec grammar above; throws std::invalid_argument on a
  /// malformed spec (mirrors graph::TopologyFamily::parse).
  static ChurnOptions parse(const std::string& spec);
};

/// A generated churn stream: the timed event schedule plus the event
/// indices after which the repaired scheme must match a fresh build.
struct ChurnPlan {
  FaultPlan plan;
  std::vector<std::size_t> quiesce_after;  ///< sorted event indices

  /// Order-sensitive hash of the schedule and the quiesce indices; the
  /// determinism tests compare plans across runs through this.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;
};

/// Generates a seeded churn plan over `g`, starting at time 0. Each event
/// is a fail or a repair with probability ½ each — a fail when nothing is
/// down, a repair when max_down is reached. Link fails follow the model's
/// preference order over live links, skipping candidates whose removal
/// would disconnect the live graph (node churn may disconnect; the session
/// reports it as a typed status instead of certifying); repairs pick
/// uniformly among the currently-down links. Every choice derives from
/// opt.seed only.
[[nodiscard]] ChurnPlan make_churn_plan(const graph::Graph& g,
                                        const ChurnOptions& opt);

/// How a churn session ended. Anything other than kCertified is the typed
/// status the chaos layer requires: the session still ran to completion,
/// but the final tables are not oracle-certified.
enum class ChurnStatus : std::uint8_t {
  kCertified,   ///< every quiesce check passed and the scheme is live
  kUnverified,  ///< ran with verify_at_quiesce off (bench timing mode)
  kStale,       ///< checks passed but the scheme ended inapplicable:
                ///< tables are stale for the final topology (by parity,
                ///< a fresh build cannot exist either)
  kMismatch,    ///< a quiesce check diverged from the fresh build
};

[[nodiscard]] const char* to_string(ChurnStatus status) noexcept;

struct ChurnSessionConfig {
  SimulatorConfig sim;
  /// Simulation-time delay between a fault striking and its repaired
  /// tables activating; messages resolved inside the window count as
  /// stale_sent.
  std::uint64_t repair_lag = 0;
  bool verify_at_quiesce = true;
  std::size_t threads = 0;  ///< feeds the TZ oracle's route_fingerprint
  /// Background traffic: `messages` seeded (source, destination, time)
  /// triples spread over the whole session.
  std::size_t messages = 64;
  std::uint64_t traffic_seed = 1;
};

/// One churn session's merged outcome. All fields are deterministic
/// counters — bit-identical at every --threads value.
struct ChurnReport {
  SimulationStats traffic;    ///< all slices merged (sums; makespan and
                              ///< max_link_load by max)
  model::RepairStats repair;  ///< the repairable's final work accounting
  std::size_t events_applied = 0;  ///< fault events replayed
  std::size_t deltas_applied = 0;  ///< effective link deltas repaired
  std::size_t quiesce_points = 0;
  std::size_t quiesce_mismatches = 0;
  std::string first_mismatch;  ///< oracle detail of the first divergence
  std::size_t stale_sent = 0;  ///< messages resolved on stale tables
  ChurnStatus status = ChurnStatus::kUnverified;
};

/// Replays `plan` against `rs` under live traffic. Precondition: `rs` is
/// freshly built (no events applied) on the same topology the plan was
/// generated for. The loop, per event e: run the simulator through
/// e.time + repair_lag (messages in that window route on the old tables),
/// expand e into effective link deltas via LiveTopology, feed each to
/// rs.apply_event(), rebind the simulator to the repaired scheme, and at
/// quiesce indices run the differential oracle. Emits churn.* metrics.
[[nodiscard]] ChurnReport run_churn_session(model::RepairableScheme& rs,
                                            const ChurnPlan& plan,
                                            const ChurnSessionConfig& cfg = {});

}  // namespace optrt::net
