// Deterministic fault injection for the routing simulator.
//
// §1 motivates full-information schemes (Theorem 10's n³/4 bits) by their
// ability to route around failed links; this module makes that scenario a
// first-class, reproducible experiment input. A FaultPlan is a seeded,
// timed schedule of link/node fail and repair events; generators cover the
// failure models the compact-routing literature measures degradation
// under: uniform link failures, targeted (high-degree) attacks, and
// partition-biased cuts. Every generator derives all randomness from its
// seed, so the same seed yields a bit-identical plan on every run, thread
// count, and platform — the same contract as PR 1's SplitMix64 sweep
// points.
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
/// no-op), which Simulator::schedule preserves via a stable sort.
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

[[nodiscard]] const char* to_string(FaultModel model) noexcept;
[[nodiscard]] std::optional<FaultModel> parse_fault_model(
    std::string_view name) noexcept;

/// Link-level view of a graph under a stream of fault events: the base
/// graph minus explicitly failed links and all links incident to failed
/// nodes. apply() folds one FaultEvent into the state and returns the
/// *effective* link-liveness deltas — exactly the model::TopologyEvents a
/// RepairableScheme consumes.
///
/// Edge cases are deterministic no-ops (pinned in faults_test.cpp):
/// repairing a never-failed link, failing an already-failed link (or
/// node), failing a non-edge, and duplicate fail/repair at the same tick
/// all leave the state unchanged and emit no deltas. A link failed both
/// explicitly and through a node failure stays down until *both* causes
/// are repaired, and the delta is emitted only when liveness actually
/// flips.
class LiveTopology {
 public:
  explicit LiveTopology(const graph::Graph& base);

  /// Folds one event in; returns the effective link deltas, each
  /// lexicographic (u < v), in increasing edge order for node events.
  std::vector<model::TopologyEvent> apply(const FaultEvent& event);

  /// True iff {u, v} is a base edge, not explicitly failed, and both
  /// endpoints are up.
  [[nodiscard]] bool link_live(NodeId u, NodeId v) const;
  [[nodiscard]] bool node_up(NodeId u) const;

  /// Base edges currently not live.
  [[nodiscard]] std::size_t down_link_count() const;

  /// Materializes the current live graph (base minus failures).
  [[nodiscard]] graph::Graph live_graph() const;

  [[nodiscard]] const graph::Graph& base() const noexcept { return *base_; }

 private:
  /// Base arc id of min(u,v) → max(u,v), or graph::kNoArc for a non-edge.
  [[nodiscard]] std::size_t link_id(NodeId u, NodeId v) const;
  /// Live base edges, lexicographic.
  [[nodiscard]] std::vector<graph::Edge> live_edges() const;

  const graph::Graph* base_;
  std::vector<bool> link_failed_;  // indexed by link_id
  std::vector<bool> node_failed_;
};

}  // namespace optrt::net
