#include "graph/ports.hpp"

#include <algorithm>
#include <stdexcept>

namespace optrt::graph {

PortAssignment PortAssignment::from_port_maps(
    const Graph& g, std::vector<std::vector<NodeId>> port_to_neighbor) {
  if (port_to_neighbor.size() != g.node_count()) {
    throw std::invalid_argument("from_port_maps: wrong node count");
  }
  constexpr auto kUnset = static_cast<PortId>(-1);
  PortAssignment pa(g);
  pa.rank_port_.assign(g.arc_count(), kUnset);
  bool in_order = true;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto& perm = port_to_neighbor[u];
    if (perm.size() != g.degree(u)) {
      throw std::invalid_argument("from_port_maps: wrong degree");
    }
    pa.port_neighbor_.insert(pa.port_neighbor_.end(), perm.begin(), perm.end());
    // Invert the permutation through the arc ids: the arc of perm[p] is
    // its rank in u's sorted slice.
    for (PortId p = 0; p < perm.size(); ++p) {
      const std::size_t arc = g.arc_index(u, perm[p]);
      if (arc == kNoArc) {
        throw std::invalid_argument("from_port_maps: not a neighbour");
      }
      if (pa.rank_port_[arc] != kUnset) {
        throw std::invalid_argument("from_port_maps: duplicate neighbour");
      }
      pa.rank_port_[arc] = p;
      in_order = in_order && arc == g.arc_begin(u) + p;
    }
  }
  if (in_order) return PortAssignment(g);  // the graph's own order
  return pa;
}

PortAssignment PortAssignment::sorted(const Graph& g) {
  return PortAssignment(g);
}

PortAssignment PortAssignment::random(const Graph& g, Rng& rng) {
  std::vector<std::vector<NodeId>> ports(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto nbrs = g.neighbors(u);
    ports[u].assign(nbrs.begin(), nbrs.end());
    std::shuffle(ports[u].begin(), ports[u].end(), rng);
  }
  return from_port_maps(g, std::move(ports));
}

PortId PortAssignment::port_of(NodeId u, NodeId v) const {
  const std::size_t arc = g_.arc_index(u, v);
  if (arc == kNoArc) {
    throw std::invalid_argument("PortAssignment::port_of: not a neighbour");
  }
  if (rank_port_.empty()) return static_cast<PortId>(arc - g_.arc_begin(u));
  return rank_port_[arc];
}

}  // namespace optrt::graph
