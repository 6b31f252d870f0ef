#include "incompressibility/theorem6.hpp"

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "graph/encoding.hpp"

namespace optrt::incompress {

namespace {

using bitio::BitReader;
using bitio::BitWriter;
using bitio::id_width;

}  // namespace

std::ptrdiff_t Theorem6Result::implied_function_lower_bound() const noexcept {
  // description = overhead + |F| + (|E(G)| − row − deleted). If E(G) is
  // incompressible then |description| ≥ |E(G)|, i.e. |F| ≥ deleted + row −
  // overhead = savings + |F| evaluated on our own F — independent of which
  // F was plugged in, since overhead and deleted depend only on G and u.
  return description.savings() + static_cast<std::ptrdiff_t>(function_bits);
}

Theorem6Result theorem6_encode(const graph::Graph& g, NodeId u,
                               const schemes::CompactNodeOptions& opt) {
  const std::size_t n = g.node_count();
  schemes::CompactNodeOptions node_opt = opt;
  node_opt.include_adjacency = false;  // model II: row is shipped separately

  const schemes::CompactNodeBits fn = schemes::build_compact_node(g, u, node_opt);
  const model::PackedSparseArray table = schemes::compile_compact_node(
      fn.bits, n, u, node_opt, g.neighbors(u));

  Theorem6Result result;
  result.function_bits = fn.bits.size();

  BitWriter w;
  w.write_bits(u, id_width(n));
  // u's incidence row, literal.
  for (NodeId v = 0; v < n; ++v) {
    if (v != u) w.write_bit(g.has_edge(u, v));
  }
  // F(u), length-prefixed with the paper's self-delimiting prime code.
  bitio::write_prime(w, fn.bits.size());
  w.write_vector(fn.bits);
  result.overhead_bits = w.bit_count() - fn.bits.size();

  // Deleted positions: for every non-neighbour w', the edge
  // {intermediary(w'), w'} — present by construction.
  std::vector<bool> deleted(n * (n - 1) / 2, false);
  for (NodeId v = 0; v < n; ++v) {
    if (v == u || g.has_edge(u, v)) continue;
    const auto mid = static_cast<NodeId>(table.value(v));
    deleted[graph::edge_index(n, mid, v)] = true;
    ++result.deleted_edge_bits;
  }

  std::size_t index = 0;
  for (NodeId a = 0; a + 1 < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b, ++index) {
      if (a == u || b == u || deleted[index]) continue;
      w.write_bit(g.has_edge(a, b));
    }
  }
  result.description = Description{w.take(), n * (n - 1) / 2};
  return result;
}

graph::Graph theorem6_decode(const bitio::BitVector& bits, std::size_t n,
                             const schemes::CompactNodeOptions& opt) {
  schemes::CompactNodeOptions node_opt = opt;
  node_opt.include_adjacency = false;

  BitReader r(bits);
  const auto u = static_cast<NodeId>(r.read_bits(id_width(n)));
  std::vector<NodeId> neighbors;
  std::vector<bool> is_neighbor(n, false);
  for (NodeId v = 0; v < n; ++v) {
    if (v == u) continue;
    if (r.read_bit()) {
      neighbors.push_back(v);
      is_neighbor[v] = true;
    }
  }
  const auto fn_len = static_cast<std::size_t>(bitio::read_prime(r));
  const bitio::BitVector fn_bits = r.read_vector(fn_len);

  const model::PackedSparseArray table =
      schemes::compile_compact_node(fn_bits, n, u, node_opt, neighbors);

  std::vector<graph::Edge> edges;
  for (NodeId v : neighbors) edges.emplace_back(u, v);
  // Edges recovered from the routing function.
  std::vector<bool> known(n * (n - 1) / 2, false);
  for (NodeId v = 0; v < n; ++v) {
    if (v == u || is_neighbor[v]) continue;
    const auto mid = static_cast<NodeId>(table.value(v));
    const std::size_t idx = graph::edge_index(n, mid, v);
    known[idx] = true;
    edges.emplace_back(mid, v);
  }
  std::size_t index = 0;
  for (NodeId a = 0; a + 1 < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b, ++index) {
      if (a == u || b == u || known[index]) continue;
      if (r.read_bit()) edges.emplace_back(a, b);
    }
  }
  return graph::Graph(n, edges);
}

}  // namespace optrt::incompress
