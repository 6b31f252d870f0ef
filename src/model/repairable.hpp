// Scheme repair under topology churn.
//
// A RepairableScheme wraps a routing scheme together with the machinery to
// keep its tables correct while the underlying graph changes one link at a
// time. Each kind has one repair path: full-table patches exactly the
// tables whose entries the event can change, from all-pairs distances it
// keeps current; TZ and compact-diam2 rebuild from scratch on every event.
// The contract the churn differential oracle enforces: after every
// applied event, scheme() must equal a fresh centralized build on
// topology() — bit-identical tables, and for TZ also the same landmarks
// and identical full-pair-space route fingerprints.
//
// This header is deliberately net-free (model must not depend on net): a
// TopologyEvent is a single undirected link-liveness delta, and the
// net-side churn driver expands its FaultEvents (including node events)
// into link deltas through net::LiveTopology.
#pragma once

#include <cstdint>
#include <string>

#include "graph/graph.hpp"
#include "model/scheme.hpp"

namespace optrt::model {

/// One undirected link-liveness change: {u, v} came up or went down.
/// Precondition for apply_event: the delta is real (the link was live
/// before a down event, dead before an up one) — LiveTopology only emits
/// such deltas.
struct TopologyEvent {
  NodeId u = 0;
  NodeId v = 0;
  bool up = false;

  friend bool operator==(const TopologyEvent&, const TopologyEvent&) noexcept =
      default;
};

/// What apply_event did.
enum class RepairOutcome : std::uint8_t {
  kNoOp,          ///< the event cannot affect any table (empty dirty set)
  kPatched,       ///< only the dirty tables were rebuilt
  kRebuilt,       ///< every table was rebuilt
  kInapplicable,  ///< the scheme cannot exist on the new topology; tables
                  ///< are stale until a later event makes it buildable
};

/// Deterministic work accounting across a repair stream. Counters, not
/// wall-clock, so bench rows are bit-identical at any thread count.
struct RepairStats {
  std::uint64_t events = 0;
  std::uint64_t noops = 0;
  std::uint64_t patched = 0;
  std::uint64_t rebuilt = 0;
  std::uint64_t inapplicable = 0;
  std::uint64_t tables_touched = 0;     ///< per-node tables rebuilt
  std::uint64_t dist_rows_bfs = 0;      ///< distance rows recomputed by BFS
  std::uint64_t dist_rows_patched = 0;  ///< distance rows fixed by min-plus

  /// The scalar the bench compares incremental repair against full
  /// rebuild on: one unit per table rebuilt or distance row refreshed.
  [[nodiscard]] std::uint64_t work() const noexcept {
    return tables_touched + dist_rows_bfs + dist_rows_patched;
  }
};

struct RepairConfig {
  /// Always rebuild from scratch — the baseline mode bench_churn measures
  /// full-table's incremental repair against. The kinds that always
  /// rebuild ignore it.
  bool force_rebuild = false;
};

/// A routing scheme that can follow a stream of topology events.
class RepairableScheme {
 public:
  virtual ~RepairableScheme() = default;

  /// Stable scheme identifier ("full-table", "compact-diam2", "tz").
  [[nodiscard]] virtual std::string kind_name() const = 0;

  /// The latest materialized scheme. While available() is false this is
  /// stale: built for an earlier topology (serving continues degraded).
  [[nodiscard]] virtual const RoutingScheme& scheme() const = 0;

  /// True when scheme() matches topology(); false after kInapplicable.
  [[nodiscard]] virtual bool available() const = 0;

  /// The current live topology (base graph with all applied deltas).
  [[nodiscard]] virtual const graph::Graph& topology() const = 0;

  /// Applies one link delta: updates the live topology, patches or
  /// rebuilds the affected tables, and re-materializes scheme().
  virtual RepairOutcome apply_event(const TopologyEvent& event) = 0;

  [[nodiscard]] virtual const RepairStats& stats() const = 0;
};

}  // namespace optrt::model
