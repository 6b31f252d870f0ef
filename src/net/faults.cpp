#include "net/faults.hpp"

#include <algorithm>
#include <numeric>
#include <random>
#include <stdexcept>

#include "core/parallel.hpp"

namespace optrt::net {

namespace {

/// Fails the first `count` edges of `model`'s fail order at opt.fail_time,
/// plus one repair per edge at fail_time + repair_after when repairs are
/// requested. Fails come before repairs at equal times by insertion
/// order, so repair_after == 0 stays "permanent" by convention rather than
/// a same-instant no-op.
FaultPlan link_fault_plan(const graph::Graph& g, FaultModel model,
                          std::size_t count, const FaultOptions& opt) {
  const std::vector<std::pair<NodeId, NodeId>> edges = edge_list(g);
  std::vector<std::size_t> order =
      fail_order(g, edges, model, core::mix64(opt.seed));
  order.resize(std::min(count, order.size()));
  FaultPlan plan;
  for (const std::size_t e : order) {
    plan.add({opt.fail_time, FaultKind::kLinkFail, edges[e].first,
              edges[e].second});
  }
  if (opt.repair_after > 0) {
    for (const std::size_t e : order) {
      plan.add({opt.fail_time + opt.repair_after, FaultKind::kLinkRepair,
                edges[e].first, edges[e].second});
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

std::vector<std::size_t> fail_order(
    const graph::Graph& g, const std::vector<std::pair<NodeId, NodeId>>& edges,
    FaultModel model, std::uint64_t rng_seed) {
  std::vector<std::size_t> order(edges.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  graph::Rng rng(rng_seed);
  switch (model) {
    case FaultModel::kUniform:
      std::shuffle(order.begin(), order.end(), rng);
      break;
    case FaultModel::kTargeted: {
      const auto degree_sum = [&](std::size_t e) {
        return g.degree(edges[e].first) + g.degree(edges[e].second);
      };
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         if (degree_sum(a) != degree_sum(b)) {
                           return degree_sum(a) > degree_sum(b);
                         }
                         return edges[a] < edges[b];
                       });
      break;
    }
    case FaultModel::kPartition: {
      // Seeded random bisection: shuffle the node ids, first half is S.
      const std::size_t n = g.node_count();
      std::vector<NodeId> nodes(n);
      std::iota(nodes.begin(), nodes.end(), NodeId{0});
      std::shuffle(nodes.begin(), nodes.end(), rng);
      std::vector<bool> in_s(n, false);
      for (std::size_t i = 0; i < n / 2; ++i) in_s[nodes[i]] = true;
      std::shuffle(order.begin(), order.end(), rng);
      std::stable_partition(order.begin(), order.end(), [&](std::size_t e) {
        return in_s[edges[e].first] != in_s[edges[e].second];  // cut first
      });
      break;
    }
    case FaultModel::kNodes:
      throw std::invalid_argument("fail_order: kNodes is not a link model");
  }
  return order;
}

FaultPlan uniform_link_faults(const graph::Graph& g, std::size_t count,
                              const FaultOptions& opt) {
  return link_fault_plan(g, FaultModel::kUniform, count, opt);
}

FaultPlan targeted_link_faults(const graph::Graph& g, std::size_t count,
                               const FaultOptions& opt) {
  return link_fault_plan(g, FaultModel::kTargeted, count, opt);
}

FaultPlan partition_link_faults(const graph::Graph& g, std::size_t count,
                                const FaultOptions& opt) {
  return link_fault_plan(g, FaultModel::kPartition, count, opt);
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

LiveTopology::LiveTopology(graph::Graph base)
    : base_(std::move(base)),
      arc_down_(base_.arc_count(), 0),
      node_failed_(base_.node_count(), false) {}

void LiveTopology::schedule(const FaultPlan& plan) {
  schedule_.insert(schedule_.end(), plan.events().begin(),
                   plan.events().end());
  sorted_ = false;
}

std::size_t LiveTopology::apply_until(std::uint64_t now) {
  if (!sorted_) {
    std::stable_sort(schedule_.begin() + static_cast<std::ptrdiff_t>(applied_),
                     schedule_.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                       return a.time < b.time;
                     });
    sorted_ = true;
  }
  const std::size_t before = applied_;
  while (applied_ < schedule_.size() && schedule_[applied_].time <= now) {
    apply(schedule_[applied_++]);
  }
  return applied_ - before;
}

std::size_t LiveTopology::arc_of(NodeId u, NodeId v) const {
  return u < node_failed_.size() ? base_.arc_index(u, v) : graph::kNoArc;
}

bool LiveTopology::node_up(NodeId u) const {
  return u < node_failed_.size() && !node_failed_[u];
}

bool LiveTopology::link_live(NodeId u, NodeId v) const {
  const std::size_t arc = arc_of(u, v);
  return arc != graph::kNoArc && arc_live(arc);
}

std::size_t LiveTopology::down_link_count() const {
  return static_cast<std::size_t>(std::count_if(
             arc_down_.begin(), arc_down_.end(),
             [](std::uint8_t causes) { return causes != 0; })) /
         2;
}

graph::Graph LiveTopology::live_graph() const {
  std::vector<graph::Edge> live;
  for (NodeId u = 0; u < base_.node_count(); ++u) {
    const std::size_t begin = base_.arc_begin(u);
    for (std::size_t p = 0; p < base_.degree(u); ++p) {
      const NodeId v = base_.neighbor_at(u, static_cast<std::uint32_t>(p));
      if (u < v && arc_live(begin + p)) live.emplace_back(u, v);
    }
  }
  return graph::Graph(base_.node_count(), live);
}

void LiveTopology::add_causes(NodeId u, NodeId v, std::size_t arc, int by,
                              std::vector<model::TopologyEvent>& deltas) {
  const bool was_live = arc_live(arc);
  const std::size_t twin = base_.arc_index(v, u);
  arc_down_[arc] = static_cast<std::uint8_t>(arc_down_[arc] + by);
  arc_down_[twin] = arc_down_[arc];
  if (arc_live(arc) != was_live) {
    deltas.push_back({std::min(u, v), std::max(u, v), !was_live});
  }
}

std::vector<model::TopologyEvent> LiveTopology::apply(const FaultEvent& event) {
  std::vector<model::TopologyEvent> deltas;
  const NodeId u = event.u;
  switch (event.kind) {
    case FaultKind::kLinkFail:
    case FaultKind::kLinkRepair: {
      const bool fail = event.kind == FaultKind::kLinkFail;
      const std::size_t arc = arc_of(u, event.v);
      // A non-edge, failing a failed link and repairing a link that is not
      // failed are deterministic no-ops.
      if (arc == graph::kNoArc ||
          ((arc_down_[arc] & kExplicit) != 0) == fail) {
        break;
      }
      add_causes(u, event.v, arc, fail ? kExplicit : -kExplicit, deltas);
      break;
    }
    case FaultKind::kNodeFail:
    case FaultKind::kNodeRepair: {
      const bool fail = event.kind == FaultKind::kNodeFail;
      if (u >= node_failed_.size() || node_failed_[u] == fail) break;
      node_failed_[u] = fail;
      // Ports are in increasing neighbour order, and so are the deltas.
      const std::size_t begin = base_.arc_begin(u);
      for (std::size_t p = 0; p < base_.degree(u); ++p) {
        add_causes(u, base_.neighbor_at(u, static_cast<std::uint32_t>(p)),
                   begin + p, fail ? kEndpoint : -kEndpoint, deltas);
      }
      break;
    }
  }
  return deltas;
}

}  // namespace optrt::net
