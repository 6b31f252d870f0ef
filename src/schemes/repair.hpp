// model::RepairableScheme implementations for the three churn-capable
// schemes: full-table, compact-diam2 and Thorup-Zwick, one repair path
// each.
//
// TZ and compact-diam2 repair by fresh build: an event toggles the link in
// the live graph and re-runs the scheme's centralized constructor on it.
// They keep only the live graph, the options and the scheme; a fresh TZ
// build costs less than keeping an all-pairs matrix current for it would.
//
// Full-table's tables are all-pairs, so it keeps one graph::DistanceMatrix
// current through DistanceMatrix::apply_link_delta (an exact min-plus patch
// on insert, a BFS of exactly the rows a delete can change) and re-encodes
// exactly the tables an event can change through full_table_node_bits, the
// encoder a fresh build calls. That is why the differential oracle can
// demand bit-identity of every kind.
//
// Every apply_event, of either path, runs inside one
// `schemes.repair.apply_event` span.
#pragma once

#include <memory>
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

/// The live graph and work accounting every repairable keeps.
class RepairableBase : public model::RepairableScheme {
 public:
  explicit RepairableBase(const graph::Graph& base) : live_(base) {}

  [[nodiscard]] const graph::Graph& topology() const override {
    return live_;
  }
  [[nodiscard]] const model::RepairStats& stats() const override {
    return stats_;
  }
  [[nodiscard]] bool available() const override { return available_; }

 protected:
  /// Books the event and toggles {u, v} in live_ (precondition: the delta
  /// is real).
  void toggle_edge(const model::TopologyEvent& event);
  /// Books a rebuild of every table; the scheme matches live_ again.
  model::RepairOutcome rebuilt();

  graph::Graph live_;
  model::RepairStats stats_;
  bool available_ = true;
};

/// Full-table repair: entry (s, t) depends on N(s), d(s, ·) and d(w, ·)
/// for w ∈ N(s), so an event re-encodes the tables of {u, v} ∪ changed
/// rows ∪ their live neighbourhoods. Works on disconnected topologies
/// (unreachable entries store port 0, like the fresh builder).
class RepairableFullTable final : public RepairableBase {
 public:
  explicit RepairableFullTable(const graph::Graph& base);

  [[nodiscard]] std::string kind_name() const override { return "full-table"; }
  [[nodiscard]] const model::RoutingScheme& scheme() const override {
    return *scheme_;
  }
  model::RepairOutcome apply_event(const model::TopologyEvent& event) override;

 private:
  /// Re-encodes the tables of `nodes` against live_'s sorted ports, then
  /// re-materializes scheme_.
  void encode(const std::vector<graph::NodeId>& nodes);

  graph::DistanceMatrix dist_;
  graph::Labeling labeling_;  // identity
  std::vector<bitio::BitVector> tables_;
  std::unique_ptr<FullTableScheme> scheme_;
};

/// Repair by fresh build, for TZ and compact-diam2: every event re-runs
/// `Scheme(live, options)`. When that constructor throws
/// SchemeInapplicable (TZ on a disconnected graph, compact-diam2 once some
/// node's neighbours stop dominating its non-neighbours), the last scheme
/// stays, stale (available() == false), until an event under which the
/// build succeeds again. The constructor's own build is not booked.
template <class Scheme>
class RepairableByRebuild final : public RepairableBase {
 public:
  using Options = typename Scheme::Options;

  /// Throws SchemeInapplicable when `base` admits no scheme.
  explicit RepairableByRebuild(const graph::Graph& base, Options options = {})
      : RepairableBase(base),
        options_(options),
        scheme_(std::make_unique<Scheme>(live_, options_)) {}

  [[nodiscard]] std::string kind_name() const override {
    return scheme_->name();
  }
  [[nodiscard]] const model::RoutingScheme& scheme() const override {
    return *scheme_;
  }
  model::RepairOutcome apply_event(const model::TopologyEvent& event) override;

  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  Options options_;
  std::unique_ptr<Scheme> scheme_;
};

using RepairableTz = RepairableByRebuild<TzScheme>;
using RepairableCompactDiam2 = RepairableByRebuild<CompactDiam2Scheme>;

/// Factory keyed by kind_name; throws std::invalid_argument on an unknown
/// kind. `seed` feeds the TZ landmark election and is ignored elsewhere.
[[nodiscard]] std::unique_ptr<model::RepairableScheme> make_repairable(
    const std::string& kind, const graph::Graph& base, std::uint64_t seed);

/// The churn differential oracle: compares the repaired scheme against a
/// fresh centralized build on rs.topology(). Bit-identical function bits
/// for all three kinds, plus SchemeInapplicable parity for compact-diam2
/// and TZ; TZ must also elect the fresh build's landmark set and give
/// identical full-pair-space route fingerprints. `threads` feeds
/// route_fingerprint; every field of the outcome is thread-count
/// independent.
struct RepairMatch {
  bool match = false;
  std::string detail;  ///< first divergence, empty when match
};
[[nodiscard]] RepairMatch repaired_matches_fresh(
    const model::RepairableScheme& rs, std::size_t threads = 0);

}  // namespace optrt::schemes
