#include "incompressibility/theorem10.hpp"

#include <stdexcept>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "graph/algorithms.hpp"
#include "graph/ports.hpp"
#include "schemes/full_information.hpp"

namespace optrt::incompress {

Theorem10Result theorem10_encode(const graph::Graph& g, NodeId u) {
  const std::size_t n = g.node_count();
  const auto dist_cached = graph::DistanceCache::global().get(g);
  const graph::DistanceMatrix& dist = *dist_cached;
  if (dist.diameter() > 2) {
    throw std::invalid_argument("theorem10_encode: diameter > 2");
  }

  const schemes::FullInformationScheme scheme =
      schemes::FullInformationScheme::standard(g);
  const bitio::BitVector& fn = scheme.function_bits(u);

  Theorem10Result result;
  result.function_bits = fn.size();

  bitio::BitWriter w;
  w.write_bits(u, bitio::id_width(n));
  for (NodeId v = 0; v < n; ++v) {
    if (v != u) w.write_bit(g.has_edge(u, v));
  }
  // F(u): length implied by the row (n·d bits), no prefix needed.
  w.write_vector(fn);

  // Stream E(G) minus u's row minus all (neighbour, non-neighbour) pairs.
  for (NodeId a = 0; a + 1 < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      if (a == u || b == u) continue;
      const bool an = g.has_edge(u, a);
      const bool bn = g.has_edge(u, b);
      if (an != bn) {
        ++result.deleted_edge_bits;
        continue;  // recoverable from F(u)
      }
      w.write_bit(g.has_edge(a, b));
    }
  }
  result.description = Description{w.take(), n * (n - 1) / 2};
  return result;
}

graph::Graph theorem10_decode(const bitio::BitVector& bits, std::size_t n) {
  bitio::BitReader r(bits);
  const auto u = static_cast<NodeId>(r.read_bits(bitio::id_width(n)));
  std::vector<bool> is_neighbor(n, false);
  std::vector<NodeId> neighbors;
  for (NodeId v = 0; v < n; ++v) {
    if (v == u) continue;
    if (r.read_bit()) {
      is_neighbor[v] = true;
      neighbors.push_back(v);
    }
  }
  const std::size_t d = neighbors.size();
  bitio::BitVector fn(n * d);
  for (std::size_t i = 0; i < n * d; ++i) fn.set(i, r.read_bit());

  std::vector<graph::Edge> edges;
  for (NodeId v : neighbors) edges.emplace_back(u, v);
  // Recover (neighbour, non-neighbour) edges: with sorted ports, the port
  // of neighbour v is its rank; {v, w} ∈ E iff port-rank(v) is flagged on
  // a shortest path u → w (diameter 2: those paths are exactly u—v—w).
  for (NodeId w = 0; w < n; ++w) {
    if (w == u || is_neighbor[w]) continue;
    for (std::size_t rank = 0; rank < d; ++rank) {
      if (fn.get(static_cast<std::size_t>(w) * d + rank)) {
        edges.emplace_back(neighbors[rank], w);
      }
    }
  }
  for (NodeId a = 0; a + 1 < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      if (a == u || b == u) continue;
      if (is_neighbor[a] != is_neighbor[b]) continue;
      if (r.read_bit()) edges.emplace_back(a, b);
    }
  }
  return graph::Graph(n, edges);
}

}  // namespace optrt::incompress
