#include "schemes/repair.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "graph/ports.hpp"
#include "model/verifier.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "schemes/errors.hpp"

namespace optrt::schemes {

using graph::NodeId;

// ---- shared base ----------------------------------------------------------

void RepairableBase::toggle_edge(const model::TopologyEvent& event) {
  ++stats_.events;
  if (event.up) {
    live_.add_edge(event.u, event.v);
  } else {
    live_.remove_edge(event.u, event.v);
  }
}

model::RepairOutcome RepairableBase::rebuilt() {
  available_ = true;
  ++stats_.rebuilt;
  stats_.tables_touched += live_.node_count();
  return model::RepairOutcome::kRebuilt;
}

// ---- full-table -----------------------------------------------------------

namespace {

/// 0, 1, …, n − 1: every table.
std::vector<NodeId> every_node(std::size_t n) {
  std::vector<NodeId> all(n);
  std::iota(all.begin(), all.end(), NodeId{0});
  return all;
}

}  // namespace

RepairableFullTable::RepairableFullTable(const graph::Graph& base,
                                         model::RepairConfig config)
    : RepairableBase(base),
      config_(config),
      dist_(base),
      labeling_(graph::Labeling::identity(base.node_count())),
      tables_(base.node_count()) {
  encode(every_node(live_.node_count()));
}

void RepairableFullTable::encode(const std::vector<NodeId>& nodes) {
  graph::PortAssignment ports = graph::PortAssignment::sorted(live_);
  for (NodeId u : nodes) {
    tables_[u] = full_table_node_bits(live_, dist_, ports, labeling_, u);
  }
  scheme_ = std::make_unique<FullTableScheme>(
      live_, std::move(ports), labeling_, model::kIAalpha, tables_);
}

model::RepairOutcome RepairableFullTable::apply_event(
    const model::TopologyEvent& event) {
  const obs::TraceSpan span("schemes.repair.apply_event");
  toggle_edge(event);
  if (config_.force_rebuild) {
    dist_ = graph::DistanceMatrix(live_);
    stats_.dist_rows_bfs += live_.node_count();
    encode(every_node(live_.node_count()));
    return rebuilt();
  }
  const graph::DistanceMatrix::LinkDelta delta =
      dist_.apply_link_delta(live_, event.u, event.v, event.up);
  stats_.dist_rows_bfs += delta.rows_bfs;
  stats_.dist_rows_patched += delta.rows_patched;
  // Entry (s, t) reads d(s, ·), d(w, ·) for w ∈ N(s), and s's port
  // numbering: dirty is the endpoints plus changed rows plus their live
  // neighbourhoods.
  std::vector<NodeId> dirty = {event.u, event.v};
  for (NodeId s : delta.changed_rows) {
    dirty.push_back(s);
    const auto nbrs = live_.neighbors(s);
    dirty.insert(dirty.end(), nbrs.begin(), nbrs.end());
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  encode(dirty);
  stats_.tables_touched += dirty.size();
  ++stats_.patched;
  return model::RepairOutcome::kPatched;
}

// ---- repair by fresh build ------------------------------------------------

template <class Scheme>
model::RepairOutcome RepairableByRebuild<Scheme>::apply_event(
    const model::TopologyEvent& event) {
  const obs::TraceSpan span("schemes.repair.apply_event");
  toggle_edge(event);
  try {
    scheme_ = std::make_unique<Scheme>(live_, options_);
  } catch (const SchemeInapplicable&) {
    available_ = false;
    ++stats_.inapplicable;
    return model::RepairOutcome::kInapplicable;
  }
  return rebuilt();
}

template class RepairableByRebuild<TzScheme>;
template class RepairableByRebuild<CompactDiam2Scheme>;

// ---- factory + differential oracle ----------------------------------------

std::unique_ptr<model::RepairableScheme> make_repairable(
    const std::string& kind, const graph::Graph& base, std::uint64_t seed,
    model::RepairConfig config) {
  if (kind == "full-table") {
    return std::make_unique<RepairableFullTable>(base, config);
  }
  if (kind == "compact-diam2") {
    return std::make_unique<RepairableCompactDiam2>(base);
  }
  if (kind == "tz") {
    TzOptions opt;
    opt.seed = seed;
    return std::make_unique<RepairableTz>(base, opt);
  }
  throw std::invalid_argument("make_repairable: unknown kind " + kind);
}

namespace {

/// One kind's oracle: SchemeInapplicable parity (the fresh build is
/// impossible iff the repairable is stale), then bit-identical node tables.
/// `build` emplaces the fresh build into `fresh`.
template <class Scheme, class Build>
RepairMatch match_fresh_tables(const model::RepairableScheme& rs,
                               std::optional<Scheme>& fresh, Build build) {
  const std::string kind = rs.kind_name();
  try {
    build(fresh);
  } catch (const SchemeInapplicable&) {
    if (rs.available()) {
      return {false, kind + ": fresh build inapplicable but repairable "
                            "claims availability"};
    }
    return {true, ""};
  }
  if (!rs.available()) {
    return {false, kind + ": fresh build succeeded but repairable is stale"};
  }
  const auto* repaired = dynamic_cast<const Scheme*>(&rs.scheme());
  if (repaired == nullptr) return {false, kind + ": wrong scheme type"};
  for (NodeId u = 0; u < rs.topology().node_count(); ++u) {
    if (!(repaired->function_bits(u) == fresh->function_bits(u))) {
      return {false, kind + ": table of node " + std::to_string(u) +
                         " diverges from the fresh build"};
    }
  }
  return {true, ""};
}

}  // namespace

RepairMatch repaired_matches_fresh(const model::RepairableScheme& rs,
                                   std::size_t threads) {
  const graph::Graph& g = rs.topology();
  const std::string kind = rs.kind_name();
  obs::counter("churn.oracle_checks").inc();
  if (kind == "full-table") {
    std::optional<FullTableScheme> fresh;
    return match_fresh_tables(rs, fresh, [&](auto& f) {
      f.emplace(FullTableScheme::standard(g));
    });
  }
  if (kind == "compact-diam2") {
    std::optional<CompactDiam2Scheme> fresh;
    return match_fresh_tables(rs, fresh, [&](auto& f) {
      f.emplace(g, CompactDiam2Scheme::Options{});
    });
  }
  if (kind == "tz") {
    const auto* tz = dynamic_cast<const RepairableTz*>(&rs);
    if (tz == nullptr) return {false, "tz: wrong repairable type"};
    std::optional<TzScheme> fresh;
    const RepairMatch tables = match_fresh_tables(
        rs, fresh, [&](auto& f) { f.emplace(g, tz->options()); });
    if (!tables.match || !fresh) return tables;
    const auto& repaired = static_cast<const TzScheme&>(rs.scheme());
    if (repaired.landmarks() != fresh->landmarks()) {
      return {false, "tz: landmark set diverges from the fresh build"};
    }
    if (model::route_fingerprint(g, repaired, 0, threads) !=
        model::route_fingerprint(g, *fresh, 0, threads)) {
      return {false, "tz: route fingerprints diverge from the fresh build"};
    }
    return tables;
  }
  return {false, "unknown repairable kind: " + kind};
}

}  // namespace optrt::schemes
