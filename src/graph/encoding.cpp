#include "graph/encoding.hpp"

#include <bit>
#include <cstdint>
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
  edges.reserve(bits.popcount());
  // Row u holds the pairs (u, u+1), …, (u, n−1) at bits [row_begin,
  // row_end). Set bits come in increasing order, so the row only advances;
  // the zero tail past size() contributes none.
  NodeId u = 0;
  std::size_t row_begin = 0;
  std::size_t row_end = n - 1;
  const std::vector<std::uint64_t>& words = bits.words();
  for (std::size_t k = 0; k < words.size(); ++k) {
    for (std::uint64_t w = words[k]; w != 0; w &= w - 1) {
      const std::size_t i =
          k * 64 + static_cast<std::size_t>(std::countr_zero(w));
      while (i >= row_end) {
        ++u;
        row_begin = row_end;
        row_end += n - 1 - u;
      }
      edges.emplace_back(u, static_cast<NodeId>(u + 1 + (i - row_begin)));
    }
  }
  return Graph(n, edges);
}

}  // namespace optrt::graph
