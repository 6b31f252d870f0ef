#include "net/faults.hpp"

#include <algorithm>
#include <numeric>
#include <random>

#include "core/parallel.hpp"

namespace optrt::net {

namespace {

/// Appends fail events for `edges` at opt.fail_time, plus one repair per
/// edge at fail_time + repair_after when repairs are requested. Fails come
/// before repairs at equal times by insertion order, so repair_after == 0
/// stays "permanent" by convention rather than a same-instant no-op.
FaultPlan plan_from_edges(const std::vector<std::pair<NodeId, NodeId>>& edges,
                          const FaultOptions& opt) {
  FaultPlan plan;
  for (const auto& [u, v] : edges) {
    plan.add({opt.fail_time, FaultKind::kLinkFail, u, v});
  }
  if (opt.repair_after > 0) {
    for (const auto& [u, v] : edges) {
      plan.add({opt.fail_time + opt.repair_after, FaultKind::kLinkRepair, u,
                v});
    }
  }
  return plan;
}

}  // namespace

std::size_t FaultPlan::fail_count() const noexcept {
  std::size_t count = 0;
  for (const FaultEvent& e : events_) {
    if (e.kind == FaultKind::kLinkFail || e.kind == FaultKind::kNodeFail) {
      ++count;
    }
  }
  return count;
}

std::uint64_t FaultPlan::fingerprint() const noexcept {
  std::uint64_t h = core::mix64(0x0f4a17e5u ^ events_.size());
  for (const FaultEvent& e : events_) {
    h = core::mix64(h ^ e.time);
    h = core::mix64(h ^ (static_cast<std::uint64_t>(e.kind) << 62) ^
                    (static_cast<std::uint64_t>(e.u) << 31) ^ e.v);
  }
  return h;
}

std::vector<std::pair<NodeId, NodeId>> edge_list(const graph::Graph& g) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(g.edge_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

FaultPlan uniform_link_faults(const graph::Graph& g, std::size_t count,
                              const FaultOptions& opt) {
  std::vector<std::pair<NodeId, NodeId>> edges = edge_list(g);
  graph::Rng rng(core::mix64(opt.seed));
  std::shuffle(edges.begin(), edges.end(), rng);
  edges.resize(std::min(count, edges.size()));
  return plan_from_edges(edges, opt);
}

FaultPlan targeted_link_faults(const graph::Graph& g, std::size_t count,
                               const FaultOptions& opt) {
  std::vector<std::pair<NodeId, NodeId>> edges = edge_list(g);
  std::stable_sort(edges.begin(), edges.end(),
                   [&g](const auto& a, const auto& b) {
                     const std::size_t da = g.degree(a.first) + g.degree(a.second);
                     const std::size_t db = g.degree(b.first) + g.degree(b.second);
                     if (da != db) return da > db;
                     return a < b;
                   });
  edges.resize(std::min(count, edges.size()));
  return plan_from_edges(edges, opt);
}

FaultPlan partition_link_faults(const graph::Graph& g, std::size_t count,
                                const FaultOptions& opt) {
  const std::size_t n = g.node_count();
  graph::Rng rng(core::mix64(opt.seed));
  // Seeded random bisection: shuffle the node ids, first half is S.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<bool> in_s(n, false);
  for (std::size_t i = 0; i < n / 2; ++i) in_s[order[i]] = true;

  std::vector<std::pair<NodeId, NodeId>> edges = edge_list(g);
  std::shuffle(edges.begin(), edges.end(), rng);
  std::stable_partition(edges.begin(), edges.end(), [&in_s](const auto& e) {
    return in_s[e.first] != in_s[e.second];  // cut edges first
  });
  edges.resize(std::min(count, edges.size()));
  return plan_from_edges(edges, opt);
}

FaultPlan uniform_node_faults(const graph::Graph& g, std::size_t count,
                              const FaultOptions& opt) {
  const std::size_t n = g.node_count();
  std::vector<NodeId> nodes(n);
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  std::vector<NodeId> picked;
  picked.reserve(std::min(count, n));
  graph::Rng rng(core::mix64(opt.seed));
  std::sample(nodes.begin(), nodes.end(), std::back_inserter(picked),
              std::min(count, n), rng);
  FaultPlan plan;
  for (NodeId u : picked) plan.add({opt.fail_time, FaultKind::kNodeFail, u, u});
  if (opt.repair_after > 0) {
    for (NodeId u : picked) {
      plan.add({opt.fail_time + opt.repair_after, FaultKind::kNodeRepair, u, u});
    }
  }
  return plan;
}

FaultPlan make_fault_plan(const graph::Graph& g, FaultModel model,
                          std::size_t count, const FaultOptions& opt) {
  switch (model) {
    case FaultModel::kUniform:
      return uniform_link_faults(g, count, opt);
    case FaultModel::kTargeted:
      return targeted_link_faults(g, count, opt);
    case FaultModel::kPartition:
      return partition_link_faults(g, count, opt);
    case FaultModel::kNodes:
      return uniform_node_faults(g, count, opt);
  }
  return {};
}

const char* to_string(FaultModel model) noexcept {
  switch (model) {
    case FaultModel::kUniform:
      return "uniform";
    case FaultModel::kTargeted:
      return "targeted";
    case FaultModel::kPartition:
      return "partition";
    case FaultModel::kNodes:
      return "nodes";
  }
  return "?";
}

std::optional<FaultModel> parse_fault_model(std::string_view name) noexcept {
  if (name == "uniform") return FaultModel::kUniform;
  if (name == "targeted") return FaultModel::kTargeted;
  if (name == "partition") return FaultModel::kPartition;
  if (name == "nodes") return FaultModel::kNodes;
  return std::nullopt;
}

LiveTopology::LiveTopology(const graph::Graph& base)
    : base_(&base),
      link_failed_(base.arc_count(), false),
      node_failed_(base.node_count(), false) {}

std::size_t LiveTopology::link_id(NodeId u, NodeId v) const {
  if (u > v) std::swap(u, v);
  return u < node_failed_.size() ? base_->arc_index(u, v) : graph::kNoArc;
}

bool LiveTopology::node_up(NodeId u) const {
  return u < node_failed_.size() && !node_failed_[u];
}

bool LiveTopology::link_live(NodeId u, NodeId v) const {
  const std::size_t id = link_id(u, v);
  return id != graph::kNoArc && !link_failed_[id] && node_up(u) &&
         node_up(v);
}

std::size_t LiveTopology::down_link_count() const {
  return base_->edge_count() - live_edges().size();
}

graph::Graph LiveTopology::live_graph() const {
  return graph::Graph(base_->node_count(), live_edges());
}

std::vector<graph::Edge> LiveTopology::live_edges() const {
  std::vector<graph::Edge> live;
  for (NodeId u = 0; u < base_->node_count(); ++u) {
    for (NodeId v : base_->neighbors(u)) {
      if (u < v && link_live(u, v)) live.emplace_back(u, v);
    }
  }
  return live;
}

std::vector<model::TopologyEvent> LiveTopology::apply(const FaultEvent& event) {
  std::vector<model::TopologyEvent> deltas;
  switch (event.kind) {
    case FaultKind::kLinkFail: {
      const std::size_t id = link_id(event.u, event.v);
      // Non-edges and already-failed links are deterministic no-ops.
      if (id == graph::kNoArc || link_failed_[id]) break;
      const bool was_live = link_live(event.u, event.v);
      link_failed_[id] = true;
      if (was_live) {
        deltas.push_back({std::min(event.u, event.v),
                          std::max(event.u, event.v), false});
      }
      break;
    }
    case FaultKind::kLinkRepair: {
      const std::size_t id = link_id(event.u, event.v);
      // Repairing a never-failed (or non-existent) link is a no-op.
      if (id == graph::kNoArc || !link_failed_[id]) break;
      link_failed_[id] = false;
      if (link_live(event.u, event.v)) {
        deltas.push_back({std::min(event.u, event.v),
                          std::max(event.u, event.v), true});
      }
      break;
    }
    case FaultKind::kNodeFail: {
      if (event.u >= node_failed_.size() || node_failed_[event.u]) break;
      // Collect the links that are live now and die with the node, in
      // increasing neighbour order (adjacency lists are sorted).
      for (NodeId v : base_->neighbors(event.u)) {
        if (link_live(event.u, v)) {
          deltas.push_back({std::min(event.u, v), std::max(event.u, v),
                            false});
        }
      }
      node_failed_[event.u] = true;
      break;
    }
    case FaultKind::kNodeRepair: {
      if (event.u >= node_failed_.size() || !node_failed_[event.u]) break;
      node_failed_[event.u] = false;
      for (NodeId v : base_->neighbors(event.u)) {
        if (link_live(event.u, v)) {
          deltas.push_back({std::min(event.u, v), std::max(event.u, v),
                            true});
        }
      }
      break;
    }
  }
  return deltas;
}

}  // namespace optrt::net
