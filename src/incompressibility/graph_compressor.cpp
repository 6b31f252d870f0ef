#include "incompressibility/graph_compressor.hpp"

#include <vector>

#include "bitio/bit_stream.hpp"
#include "incompressibility/enumerative.hpp"

namespace optrt::incompress {

bitio::BitVector compress_graph(const graph::Graph& g) {
  const std::size_t n = g.node_count();
  bitio::BitWriter w;
  for (graph::NodeId u = 0; u + 1 < n; ++u) {
    bitio::BitVector row;
    for (graph::NodeId v = u + 1; v < n; ++v) row.push_back(g.has_edge(u, v));
    write_fixed_weight(w, row);
  }
  return w.take();
}

graph::Graph decompress_graph(const bitio::BitVector& bits, std::size_t n) {
  bitio::BitReader r(bits);
  std::vector<graph::Edge> edges;
  for (graph::NodeId u = 0; u + 1 < n; ++u) {
    const bitio::BitVector row = read_fixed_weight(r, n - 1 - u);
    for (graph::NodeId v = u + 1; v < n; ++v) {
      if (row.get(v - u - 1)) edges.emplace_back(u, v);
    }
  }
  return graph::Graph(n, edges);
}

std::size_t compressed_graph_bits(const graph::Graph& g) {
  const std::size_t n = g.node_count();
  std::size_t total = 0;
  for (graph::NodeId u = 0; u + 1 < n; ++u) {
    std::size_t weight = 0;
    for (graph::NodeId v : g.neighbors(u)) {
      if (v > u) ++weight;
    }
    total += fixed_weight_total_bits(n - 1 - u, weight);
  }
  return total;
}

}  // namespace optrt::incompress
