#include "graph/encoding.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

namespace optrt::graph {

std::size_t edge_index(std::size_t n, NodeId u, NodeId v) noexcept {
  if (u > v) std::swap(u, v);
  // Edges with first endpoint < u occupy sum_{i<u} (n-1-i) positions.
  const std::size_t a = u;
  const std::size_t prefix = a * (n - 1) - a * (a - 1) / 2;
  return prefix + (v - u - 1);
}

EdgePair edge_from_index(std::size_t n, std::size_t index) noexcept {
  NodeId u = 0;
  std::size_t row = n - 1;  // number of edges with first endpoint u
  while (index >= row) {
    index -= row;
    ++u;
    --row;
  }
  return EdgePair{u, static_cast<NodeId>(u + 1 + index)};
}

bitio::BitVector encode(const Graph& g) {
  const std::size_t n = g.node_count();
  bitio::BitVector bits(n * (n - 1) / 2);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (v > u) bits.set(edge_index(n, u, v), true);
    }
  }
  return bits;
}

Graph decode(const bitio::BitVector& bits, std::size_t n) {
  if (bits.size() != n * (n - 1) / 2) {
    throw std::invalid_argument("graph::decode: length != n(n-1)/2");
  }
  std::vector<Edge> edges;
  std::size_t i = 0;
  for (NodeId u = 0; u + 1 < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v, ++i) {
      if (bits.get(i)) edges.emplace_back(u, v);
    }
  }
  return Graph(n, edges);
}

}  // namespace optrt::graph
