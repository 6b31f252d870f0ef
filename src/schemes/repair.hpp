// model::RepairableScheme implementations for the three churn-capable
// schemes (ROADMAP item 5a): full-table, compact-diam2, and Thorup-Zwick.
//
// Full-table and TZ each keep one graph::DistanceMatrix current through
// DistanceMatrix::apply_link_delta (an exact min-plus patch on insert, a
// BFS of the rows a delete can change). On top of it each repairable
// derives the *dirty set* — the nodes whose serialized tables the event
// can change — rebuilds only those tables through the same per-node
// builders a fresh construction calls (full_table_node_bits,
// build_compact_node, and for TZ least_port plus build_landmark_node_bits,
// fed from matrix rows where a fresh build feeds BFS rows), and
// re-materializes its scheme through the validating deserialization
// constructors. That is why the differential oracle can demand
// bit-identity: patched tables come from the same encoder and port rule a
// fresh centralized build uses, just for fewer nodes. RepairConfig::
// force_rebuild only forces the full-rebuild path, after a fresh
// all-pairs BFS.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "graph/labeling.hpp"
#include "model/repairable.hpp"
#include "schemes/compact_diam2.hpp"
#include "schemes/full_table.hpp"
#include "schemes/tz.hpp"

namespace optrt::schemes {

/// Common bookkeeping shared by the three repairables.
class RepairableBase : public model::RepairableScheme {
 public:
  explicit RepairableBase(const graph::Graph& base, model::RepairConfig config);

  [[nodiscard]] const graph::Graph& topology() const override {
    return live_;
  }
  [[nodiscard]] const model::RepairStats& stats() const override {
    return stats_;
  }
  [[nodiscard]] bool available() const override { return available_; }

 protected:
  /// Toggles {u, v} in live_ (precondition: the delta is real).
  void toggle_edge(const model::TopologyEvent& event);
  /// Brings `dist` up to date with live_ after toggle_edge and books the
  /// rows spent: a fresh all-pairs BFS under force_rebuild, otherwise
  /// apply_link_delta. Returns the changed rows (none under force_rebuild,
  /// which rebuilds every table anyway).
  std::vector<graph::NodeId> refresh_distances(
      graph::DistanceMatrix& dist, const model::TopologyEvent& event);
  /// True when force_rebuild is set or `dirty` tables exceed
  /// kRebuildFraction of n: every table is rebuilt.
  [[nodiscard]] bool full_rebuild_due(std::size_t dirty) const;

  /// Outcome bookkeeping. A full rebuild leaves the scheme available (its
  /// caller books the tables); a patch books its `tables`; an inapplicable
  /// topology leaves the last tables stale.
  model::RepairOutcome rebuilt();
  model::RepairOutcome patched(std::size_t tables);
  model::RepairOutcome inapplicable();

  graph::Graph live_;
  model::RepairConfig config_;
  model::RepairStats stats_;
  bool available_ = true;
};

/// Full-table repair: entry (s, t) depends on N(s), d(s, ·) and d(w, ·)
/// for w ∈ N(s), so dirty = {u, v} ∪ changed rows ∪ their live
/// neighbourhoods. Works on disconnected topologies (unreachable entries
/// store port 0, like the fresh builder).
class RepairableFullTable final : public RepairableBase {
 public:
  explicit RepairableFullTable(const graph::Graph& base,
                               model::RepairConfig config = {});

  [[nodiscard]] std::string kind_name() const override { return "full-table"; }
  [[nodiscard]] const model::RoutingScheme& scheme() const override {
    return *scheme_;
  }
  model::RepairOutcome apply_event(const model::TopologyEvent& event) override;

 private:
  /// Rebuilds the tables of `nodes` against live_'s sorted ports, then
  /// re-materializes scheme_.
  void rebuild(const std::vector<graph::NodeId>& nodes);

  graph::DistanceMatrix dist_;
  graph::Labeling labeling_;  // identity
  std::vector<bitio::BitVector> tables_;
  std::unique_ptr<FullTableScheme> scheme_;
};

/// Compact-diam2 repair: node u's Theorem-1 table depends only on N(u)
/// and the adjacency between N(u) and u's non-neighbours, so toggling
/// {a, b} dirties exactly {a, b} ∪ N(a) ∪ N(b). No distance matrix is
/// needed at all. When a dirty node's neighbours stop dominating its
/// non-neighbours the scheme is inapplicable: tables go stale
/// (available() == false) until an event under which a full rebuild
/// succeeds again.
class RepairableCompactDiam2 final : public RepairableBase {
 public:
  explicit RepairableCompactDiam2(const graph::Graph& base,
                                  CompactDiam2Scheme::Options options = {},
                                  model::RepairConfig config = {});

  [[nodiscard]] std::string kind_name() const override {
    return "compact-diam2";
  }
  [[nodiscard]] const model::RoutingScheme& scheme() const override {
    return *scheme_;
  }
  model::RepairOutcome apply_event(const model::TopologyEvent& event) override;

 private:
  /// Rebuilds every table from live_ and re-materializes scheme_; returns
  /// false, leaving both untouched, on SchemeInapplicable.
  bool try_full_rebuild();
  void materialize();

  CompactDiam2Scheme::Options options_;
  std::vector<bitio::BitVector> tables_;
  std::unique_ptr<CompactDiam2Scheme> scheme_;
};

/// Thorup-Zwick repair: replays the seeded landmark election (its cluster
/// sizes come from the cluster layer, as in a fresh build). If the elected
/// set changed — or the graph disconnected and reconnected — every table
/// is rebuilt from the cluster layer; otherwise dirty = {u, v} ∪ changed
/// rows ∪ their live neighbourhoods ∪ every w whose strict-cluster
/// membership of some v with changed d(v, A) flips, and each dirty table
/// is re-read from the maintained matrix's rows through least_port. Both
/// paths end in build_landmark_node_bits, so with equal landmarks and
/// equal distances tables are byte-identical to a fresh build. On a
/// disconnected live graph the scheme is inapplicable (fresh TzScheme
/// construction throws), and the last tables stay stale.
class RepairableTz final : public RepairableBase {
 public:
  explicit RepairableTz(const graph::Graph& base, TzOptions options = {},
                        model::RepairConfig config = {});

  [[nodiscard]] std::string kind_name() const override { return "tz"; }
  [[nodiscard]] const model::RoutingScheme& scheme() const override {
    return *scheme_;
  }
  model::RepairOutcome apply_event(const model::TopologyEvent& event) override;

  [[nodiscard]] const TzOptions& options() const noexcept { return options_; }

 private:
  /// Rebuilds d(·, A) and every table under landmarks_ from the cluster
  /// layer, as a fresh build does, then re-materializes scheme_.
  void rebuild_all();
  /// Node w's table from the maintained matrix: each port through
  /// least_port on one matrix row, written by the shared encoder.
  [[nodiscard]] bitio::BitVector patched_node_bits(graph::NodeId w) const;
  void materialize();

  TzOptions options_;
  graph::DistanceMatrix dist_;
  std::vector<graph::NodeId> landmarks_;
  std::vector<std::uint32_t> dva_;  // d(v, A) under landmarks_
  std::vector<bitio::BitVector> tables_;
  std::unique_ptr<TzScheme> scheme_;
};

/// Factory keyed by kind_name; throws std::invalid_argument on an unknown
/// kind. `seed` feeds the TZ landmark election and is ignored elsewhere.
[[nodiscard]] std::unique_ptr<model::RepairableScheme> make_repairable(
    const std::string& kind, const graph::Graph& base, std::uint64_t seed,
    model::RepairConfig config = {});

/// The churn differential oracle: compares the incrementally repaired
/// scheme against a fresh centralized build on rs.topology().
/// Bit-identical function bits for all three kinds, plus SchemeInapplicable
/// parity for compact-diam2 and TZ; TZ must also elect the fresh build's
/// landmark set and give identical full-pair-space route fingerprints, so
/// patched tables (matrix-fed ports) are held to the fresh build's
/// BFS-fed ones. `threads` feeds route_fingerprint; every field of the
/// outcome is thread-count independent.
struct RepairMatch {
  bool match = false;
  std::string detail;  ///< first divergence, empty when match
};
[[nodiscard]] RepairMatch repaired_matches_fresh(
    const model::RepairableScheme& rs, std::size_t threads = 0);

}  // namespace optrt::schemes
