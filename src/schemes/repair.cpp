#include "schemes/repair.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "graph/ports.hpp"
#include "model/verifier.hpp"
#include "obs/metrics.hpp"
#include "schemes/errors.hpp"
#include "schemes/landmark_table.hpp"

namespace optrt::schemes {

using graph::NodeId;

namespace {

/// Past this fraction of n dirty tables a full rebuild is cheaper than
/// patch bookkeeping; likewise a full BFS past this fraction of candidate
/// rows for a delete.
constexpr double kRebuildFraction = 0.5;

}  // namespace

// ---- shared base ----------------------------------------------------------

RepairableBase::RepairableBase(const graph::Graph& base,
                               model::RepairConfig config)
    : live_(base), config_(config) {}

void RepairableBase::toggle_edge(const model::TopologyEvent& event) {
  if (event.up) {
    live_.add_edge(event.u, event.v);
  } else {
    live_.remove_edge(event.u, event.v);
  }
}

std::vector<NodeId> RepairableBase::refresh_distances(
    graph::DistanceMatrix& dist, const model::TopologyEvent& event) {
  if (config_.force_rebuild) {
    dist = graph::DistanceMatrix(live_);
    stats_.dist_rows_bfs += live_.node_count();
    return {};
  }
  graph::DistanceMatrix::LinkDelta delta = dist.apply_link_delta(
      live_, event.u, event.v, event.up, kRebuildFraction);
  stats_.dist_rows_bfs += delta.rows_bfs;
  stats_.dist_rows_patched += delta.rows_patched;
  return std::move(delta.changed_rows);
}

bool RepairableBase::full_rebuild_due(std::size_t dirty) const {
  return config_.force_rebuild ||
         static_cast<double>(dirty) >
             kRebuildFraction * static_cast<double>(live_.node_count());
}

model::RepairOutcome RepairableBase::rebuilt() {
  available_ = true;
  ++stats_.rebuilt;
  return model::RepairOutcome::kRebuilt;
}

model::RepairOutcome RepairableBase::patched(std::size_t tables) {
  stats_.tables_touched += tables;
  ++stats_.patched;
  return model::RepairOutcome::kPatched;
}

model::RepairOutcome RepairableBase::inapplicable() {
  available_ = false;
  ++stats_.inapplicable;
  return model::RepairOutcome::kInapplicable;
}

namespace {

/// dirty ∪= the live neighbourhoods of `rows`; returns the sorted
/// deduplicated dirty list.
std::vector<NodeId> close_over_neighbors(const graph::Graph& g,
                                         std::vector<NodeId> dirty,
                                         const std::vector<NodeId>& rows) {
  for (NodeId s : rows) {
    dirty.push_back(s);
    const auto nbrs = g.neighbors(s);
    dirty.insert(dirty.end(), nbrs.begin(), nbrs.end());
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  return dirty;
}

/// 0, 1, …, n − 1: the dirty set of a full rebuild.
std::vector<NodeId> every_node(std::size_t n) {
  std::vector<NodeId> all(n);
  std::iota(all.begin(), all.end(), NodeId{0});
  return all;
}

}  // namespace

// ---- full-table -----------------------------------------------------------

RepairableFullTable::RepairableFullTable(const graph::Graph& base,
                                         model::RepairConfig config)
    : RepairableBase(base, config),
      dist_(base),
      labeling_(graph::Labeling::identity(base.node_count())),
      tables_(base.node_count()) {
  rebuild(every_node(live_.node_count()));
}

void RepairableFullTable::rebuild(const std::vector<NodeId>& nodes) {
  graph::PortAssignment ports = graph::PortAssignment::sorted(live_);
  for (NodeId u : nodes) {
    tables_[u] = full_table_node_bits(live_, dist_, ports, labeling_, u);
  }
  scheme_ = std::make_unique<FullTableScheme>(
      live_, std::move(ports), labeling_, model::kIAalpha, tables_);
}

model::RepairOutcome RepairableFullTable::apply_event(
    const model::TopologyEvent& event) {
  ++stats_.events;
  toggle_edge(event);
  // Entry (s, t) reads d(s, ·), d(w, ·) for w ∈ N(s), and s's port
  // numbering — dirty is the endpoints plus changed rows plus their live
  // neighbourhoods.
  const std::vector<NodeId> dirty = close_over_neighbors(
      live_, {event.u, event.v}, refresh_distances(dist_, event));
  if (full_rebuild_due(dirty.size())) {
    rebuild(every_node(live_.node_count()));
    stats_.tables_touched += live_.node_count();
    return rebuilt();
  }
  rebuild(dirty);
  return patched(dirty.size());
}

// ---- compact-diam2 --------------------------------------------------------

RepairableCompactDiam2::RepairableCompactDiam2(
    const graph::Graph& base, CompactDiam2Scheme::Options options,
    model::RepairConfig config)
    : RepairableBase(base, config), options_(options) {
  options_.node.include_adjacency = !options_.neighbors_known;
  if (!try_full_rebuild()) {
    throw SchemeInapplicable(
        "RepairableCompactDiam2: base graph not diameter-2 dominated");
  }
}

bool RepairableCompactDiam2::try_full_rebuild() {
  const std::size_t n = live_.node_count();
  std::vector<bitio::BitVector> fresh(n);
  try {
    for (NodeId u = 0; u < n; ++u) {
      fresh[u] = build_compact_node(live_, u, options_.node).bits;
    }
  } catch (const SchemeInapplicable&) {
    return false;
  }
  tables_ = std::move(fresh);
  stats_.tables_touched += n;
  materialize();
  return true;
}

void RepairableCompactDiam2::materialize() {
  scheme_ = std::make_unique<CompactDiam2Scheme>(live_, options_, tables_);
}

model::RepairOutcome RepairableCompactDiam2::apply_event(
    const model::TopologyEvent& event) {
  ++stats_.events;
  toggle_edge(event);
  // u's table reads N(u) and the adjacency between N(u) and u's
  // non-neighbours: toggling {a, b} can only change tables of a, b, and
  // their (old or new) neighbours. The endpoints' neighbourhoods differ
  // between the old and new graph only by each other, which the explicit
  // {a, b} seed already covers — live_ (post-toggle) closure is exact.
  const std::vector<NodeId> dirty = close_over_neighbors(
      live_, {event.u, event.v}, {event.u, event.v});
  // A stale scheme recovers only through a full rebuild.
  if (!available_ || full_rebuild_due(dirty.size())) {
    return try_full_rebuild() ? rebuilt() : inapplicable();
  }
  std::vector<bitio::BitVector> fresh(dirty.size());
  try {
    for (std::size_t i = 0; i < dirty.size(); ++i) {
      fresh[i] = build_compact_node(live_, dirty[i], options_.node).bits;
    }
  } catch (const SchemeInapplicable&) {
    // The new topology broke domination for a dirty node; tables go stale
    // until a later event makes the scheme buildable again.
    return inapplicable();
  }
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    tables_[dirty[i]] = std::move(fresh[i]);
  }
  materialize();
  return patched(dirty.size());
}

// ---- Thorup-Zwick ---------------------------------------------------------

RepairableTz::RepairableTz(const graph::Graph& base, TzOptions options,
                           model::RepairConfig config)
    : RepairableBase(base, config), options_(options), dist_(base) {
  if (!dist_.connected()) {
    throw SchemeInapplicable("RepairableTz: base graph disconnected");
  }
  landmarks_ = tz_sample_landmarks(live_, options_);
  rebuild_all();
}

void RepairableTz::rebuild_all() {
  dva_ = nearest_landmarks(live_, landmarks_).distance;
  tables_ = build_landmark_tables(live_, landmarks_, dva_);
  stats_.tables_touched += live_.node_count();
  materialize();
}

bitio::BitVector RepairableTz::patched_node_bits(NodeId w) const {
  std::vector<graph::PortId> ports;
  for (const NodeId l : landmarks_) {
    ports.push_back(l == w ? 0 : least_port(live_, dist_.row(l), w));
  }
  std::vector<TableEntry> cluster;
  for (NodeId v = 0; v < live_.node_count(); ++v) {
    if (v != w && dist_.at(w, v) < dva_[v]) {
      cluster.push_back({v, least_port(live_, dist_.row(v), w)});
    }
  }
  return build_landmark_node_bits(live_, w, ports, cluster);
}

void RepairableTz::materialize() {
  scheme_ = std::make_unique<TzScheme>(live_, landmarks_, tables_);
}

model::RepairOutcome RepairableTz::apply_event(
    const model::TopologyEvent& event) {
  ++stats_.events;
  toggle_edge(event);
  const std::size_t n = live_.node_count();
  const std::vector<NodeId> changed_rows = refresh_distances(dist_, event);
  // Fresh TZ construction throws on disconnected graphs; mirror it.
  if (!dist_.connected()) return inapplicable();
  // Replay the seeded election — the same draws a fresh build on this
  // topology makes. A changed electorate (or recovery from a stale period,
  // or force_rebuild) rebuilds every table from the cluster layer, as a
  // fresh build does. Materializing runs the decoder's one multi-source
  // landmark BFS.
  std::vector<NodeId> elected = tz_sample_landmarks(live_, options_);
  if (!available_ || config_.force_rebuild || elected != landmarks_) {
    landmarks_ = std::move(elected);
    rebuild_all();
    return rebuilt();
  }
  // Same landmarks: diff d(·, A) and flip-test cluster membership. w's
  // table reads N(w), d(w, ·), d(x, ·) for x ∈ N(w) (successor steps),
  // and the strict test d(w, v) < d(v, A) per destination v.
  std::vector<std::uint32_t> dva_new =
      nearest_landmarks(live_, landmarks_).distance;
  std::vector<bool> is_dirty(n, false);
  for (NodeId w :
       close_over_neighbors(live_, {event.u, event.v}, changed_rows)) {
    is_dirty[w] = true;
  }
  for (NodeId v = 0; v < n; ++v) {
    if (dva_new[v] == dva_[v]) continue;
    for (NodeId w = 0; w < n; ++w) {
      if (is_dirty[w] || w == v) continue;
      const bool was = dist_.at(w, v) < dva_[v];
      const bool now = dist_.at(w, v) < dva_new[v];
      if (was != now) is_dirty[w] = true;
    }
  }
  dva_ = std::move(dva_new);
  std::vector<NodeId> dirty;
  for (NodeId w = 0; w < n; ++w) {
    if (is_dirty[w]) dirty.push_back(w);
  }
  if (full_rebuild_due(dirty.size())) {
    rebuild_all();
    return rebuilt();
  }
  for (NodeId w : dirty) tables_[w] = patched_node_bits(w);
  materialize();
  return patched(dirty.size());
}

// ---- factory + differential oracle ----------------------------------------

std::unique_ptr<model::RepairableScheme> make_repairable(
    const std::string& kind, const graph::Graph& base, std::uint64_t seed,
    model::RepairConfig config) {
  if (kind == "full-table") {
    return std::make_unique<RepairableFullTable>(base, config);
  }
  if (kind == "compact-diam2") {
    return std::make_unique<RepairableCompactDiam2>(
        base, CompactDiam2Scheme::Options{}, config);
  }
  if (kind == "tz") {
    TzOptions opt;
    opt.seed = seed;
    return std::make_unique<RepairableTz>(base, opt, config);
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
