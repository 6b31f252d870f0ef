// Deterministic fault injection for the routing simulator, the CONGEST
// engine and churn sessions.
//
// §1 motivates full-information schemes (Theorem 10's n³/4 bits) by their
// ability to route around failed links; this module makes that scenario a
// first-class, reproducible experiment input. A FaultPlan is a seeded,
// timed schedule of link/node fail and repair events; generators cover the
// failure models the compact-routing literature measures degradation
// under: uniform link failures, targeted (high-degree) attacks, and
// partition-biased cuts, all three ordered by one fail_order function that
// churn plans share. Every generator derives all randomness from its
// seed, so the same seed yields a bit-identical plan on every run, thread
// count, and platform — the same contract as the SplitMix64 sweep points.
//
// LiveTopology is the only code that turns FaultEvents into liveness: the
// Simulator and the CONGEST engine each hold one and replay their
// scheduled plans through it, and a churn session expands its events into
// repair deltas with another.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "model/repairable.hpp"

namespace optrt::net {

using graph::NodeId;

enum class FaultKind : std::uint8_t {
  kLinkFail,
  kLinkRepair,
  kNodeFail,   ///< all links incident to the node go down
  kNodeRepair,
};

/// One timed topology change. For node events `v` is unused (== u).
struct FaultEvent {
  std::uint64_t time = 0;
  FaultKind kind = FaultKind::kLinkFail;
  NodeId u = 0;
  NodeId v = 0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) noexcept =
      default;
};

/// An ordered schedule of fault events. Events at equal times apply in
/// insertion order (so a fail followed by a repair of the same link is a
/// no-op), which LiveTopology's replay preserves via a stable sort.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::vector<FaultEvent> events)
      : events_(std::move(events)) {}

  void add(FaultEvent e) { events_.push_back(e); }

  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

  /// Number of fail (link or node) events in the plan.
  [[nodiscard]] std::size_t fail_count() const noexcept;

  /// Order-sensitive 64-bit hash of the full event sequence; the
  /// determinism tests compare plans across runs through this.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept;

  friend bool operator==(const FaultPlan&, const FaultPlan&) noexcept =
      default;

 private:
  std::vector<FaultEvent> events_;
};

/// Knobs shared by all plan generators.
struct FaultOptions {
  std::uint64_t seed = 1;
  std::uint64_t fail_time = 0;     ///< simulation time the failures strike
  std::uint64_t repair_after = 0;  ///< 0 = permanent; else each fault is
                                   ///< repaired at fail_time + repair_after
};

/// The undirected edge list of `g` in lexicographic (u < v) order — the
/// canonical population every link-fault generator samples from (bounded
/// and duplicate-free by construction, unlike rejection sampling of node
/// pairs).
[[nodiscard]] std::vector<std::pair<NodeId, NodeId>> edge_list(
    const graph::Graph& g);

/// Uniform link failures: a seeded shuffle of the edge list, failed set =
/// its first `count` edges. Plans for the same seed are prefix-nested in
/// `count`, which makes "delivery is monotone in failure count" a
/// well-posed property. `count` is clamped to |E|.
[[nodiscard]] FaultPlan uniform_link_faults(const graph::Graph& g,
                                            std::size_t count,
                                            const FaultOptions& opt = {});

/// Targeted attack: fails the `count` edges with the largest endpoint
/// degree sum (lexicographic tie-break) — the "hub-directed" adversary of
/// the Internet-like-graph resilience literature. Deterministic for every
/// seed (the seed only stamps the plan's derived repair schedule).
[[nodiscard]] FaultPlan targeted_link_faults(const graph::Graph& g,
                                             std::size_t count,
                                             const FaultOptions& opt = {});

/// Partition-biased failures: a seeded random bisection (S, V∖S); cut
/// edges are failed first (in seeded-shuffle order), then non-cut edges —
/// the generator that stresses connectivity hardest per failed link.
[[nodiscard]] FaultPlan partition_link_faults(const graph::Graph& g,
                                              std::size_t count,
                                              const FaultOptions& opt = {});

/// Uniform node failures: `count` distinct nodes drawn via std::sample
/// from {0..n−1} (clamped to n).
[[nodiscard]] FaultPlan uniform_node_faults(const graph::Graph& g,
                                            std::size_t count,
                                            const FaultOptions& opt = {});

/// Generator selector, for CLI/bench plumbing.
enum class FaultModel : std::uint8_t {
  kUniform,
  kTargeted,
  kPartition,
  kNodes,
};

[[nodiscard]] FaultPlan make_fault_plan(const graph::Graph& g,
                                        FaultModel model, std::size_t count,
                                        const FaultOptions& opt = {});

/// The fail-preference order of a link fault model over `edges`, which
/// must be edge_list(g), as a permutation of its indices: uniform is a
/// shuffle; targeted puts the largest endpoint degree sum first
/// (lexicographic tie-break) and draws nothing; partition puts the edges
/// cut by a random bisection first, each part in shuffled order. Every
/// draw comes from graph::Rng(rng_seed). The link generators above fail a
/// prefix of it, and make_churn_plan its first live non-bridge. kNodes is
/// not a link model: std::invalid_argument.
[[nodiscard]] std::vector<std::size_t> fail_order(
    const graph::Graph& g, const std::vector<std::pair<NodeId, NodeId>>& edges,
    FaultModel model, std::uint64_t rng_seed);

[[nodiscard]] const char* to_string(FaultModel model) noexcept;
[[nodiscard]] std::optional<FaultModel> parse_fault_model(
    std::string_view name) noexcept;

/// The one fold of FaultEvents into link and node liveness. The
/// Simulator and the CONGEST engine replay scheduled plans through it,
/// and churn sessions expand events into repair deltas with it. The live
/// graph is the base graph minus explicitly failed links and all links
/// incident to failed nodes.
///
/// Edge cases are deterministic no-ops (pinned in faults_test.cpp):
/// repairing a never-failed link, failing an already-failed link (or
/// node), failing a non-edge or an out-of-range id, and duplicate
/// fail/repair at the same tick all leave the state unchanged and emit no
/// deltas. A link failed both explicitly and through a node failure stays
/// down until *both* causes are repaired, and the delta is emitted only
/// when liveness actually flips.
class LiveTopology {
 public:
  explicit LiveTopology(graph::Graph base);

  /// Appends a plan's events to the replay schedule.
  void schedule(const FaultPlan& plan);

  /// Applies every scheduled event with time <= `now` not applied yet,
  /// in time order and equal times in the order they were scheduled (so a
  /// fail then a repair of one link at one instant is a no-op). Returns
  /// how many events it applied, no-ops included.
  std::size_t apply_until(std::uint64_t now);

  /// Folds one event in now; returns the effective link deltas, each
  /// lexicographic (u < v), in increasing edge order for node events.
  std::vector<model::TopologyEvent> apply(const FaultEvent& event);

  /// True iff arc `arc` of the base graph is live. O(1); precondition:
  /// arc < base().arc_count().
  [[nodiscard]] bool arc_live(std::size_t arc) const noexcept {
    return arc_down_[arc] == 0;
  }
  /// True iff {u, v} is a base edge, not explicitly failed, and both
  /// endpoints are up.
  [[nodiscard]] bool link_live(NodeId u, NodeId v) const;
  [[nodiscard]] bool node_up(NodeId u) const;

  /// Base edges currently not live.
  [[nodiscard]] std::size_t down_link_count() const;

  /// Materializes the current live graph (base minus failures).
  [[nodiscard]] graph::Graph live_graph() const;

  [[nodiscard]] const graph::Graph& base() const noexcept { return base_; }

 private:
  /// Arc id of u → v, or graph::kNoArc for a non-edge or u out of range.
  [[nodiscard]] std::size_t arc_of(NodeId u, NodeId v) const;
  /// Adds `by` to both arcs of {u, v} (`arc` is u → v) and records a
  /// delta when the link's liveness flips.
  void add_causes(NodeId u, NodeId v, std::size_t arc, int by,
                  std::vector<model::TopologyEvent>& deltas);

  // The causes that keep a link down, as counted in arc_down_.
  static constexpr int kExplicit = 1;  // the link itself is failed
  static constexpr int kEndpoint = 2;  // per failed endpoint

  graph::Graph base_;
  /// Per base arc: kExplicit while the link itself is failed, plus
  /// kEndpoint per failed endpoint. Both arcs of a link hold the same
  /// value, and an arc is live iff its value is 0.
  std::vector<std::uint8_t> arc_down_;
  std::vector<bool> node_failed_;
  std::vector<FaultEvent> schedule_;
  std::size_t applied_ = 0;  ///< schedule_[0, applied_) has been applied
  bool sorted_ = true;  ///< schedule_[applied_, end) is sorted by time
};

}  // namespace optrt::net
