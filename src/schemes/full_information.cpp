#include "schemes/full_information.hpp"

#include <algorithm>
#include <stdexcept>

namespace optrt::schemes {

FullInformationScheme::FullInformationScheme(const graph::Graph& g,
                                             graph::PortAssignment ports)
    : n_(g.node_count()), ports_(std::move(ports)) {
  const auto dist_cached = graph::DistanceCache::global().get(g);
  const graph::DistanceMatrix& dist = *dist_cached;
  matrix_bits_.resize(n_);
  for (NodeId u = 0; u < n_; ++u) {
    const std::size_t d = ports_.degree(u);
    bitio::BitVector bits(n_ * d);
    for (NodeId v = 0; v < n_; ++v) {
      if (v == u || dist.at(u, v) == graph::kUnreachable) continue;
      for (NodeId s : graph::shortest_path_successors(g, dist, u, v)) {
        bits.set(static_cast<std::size_t>(v) * d + ports_.port_of(u, s), true);
      }
    }
    matrix_bits_[u] = std::move(bits);
  }
}

FullInformationScheme FullInformationScheme::standard(const graph::Graph& g) {
  return FullInformationScheme(g, graph::PortAssignment::sorted(g));
}

NodeId FullInformationScheme::next_hop(NodeId u, NodeId dest_label,
                                       model::MessageHeader&) const {
  const std::size_t d = ports_.degree(u);
  for (graph::PortId p = 0; p < d; ++p) {
    if (port_bit(u, dest_label, p)) return ports_.neighbor_at(u, p);
  }
  throw std::invalid_argument("FullInformationScheme: no route recorded");
}

std::vector<NodeId> FullInformationScheme::all_next_hops(
    NodeId u, NodeId dest_label) const {
  std::vector<NodeId> hops;
  const std::size_t d = ports_.degree(u);
  for (graph::PortId p = 0; p < d; ++p) {
    if (port_bit(u, dest_label, p)) hops.push_back(ports_.neighbor_at(u, p));
  }
  return hops;
}

NodeId FullInformationScheme::next_hop_avoiding(
    NodeId u, NodeId dest_label, const std::vector<bool>& down_ports) const {
  const std::size_t d = ports_.degree(u);
  for (graph::PortId p = 0; p < d; ++p) {
    if (port_bit(u, dest_label, p) && (p >= down_ports.size() || !down_ports[p])) {
      return ports_.neighbor_at(u, p);
    }
  }
  return kNoRoute;
}

std::vector<NodeId> FullInformationScheme::port_enumeration(NodeId u) const {
  const auto ports = ports_.ports(u);
  return {ports.begin(), ports.end()};
}

model::SpaceReport FullInformationScheme::space() const {
  return model::SpaceReport::of(matrix_bits_);
}

}  // namespace optrt::schemes
