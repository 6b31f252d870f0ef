#include "incompressibility/lemma_codecs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "graph/algorithms.hpp"
#include "graph/encoding.hpp"
#include "incompressibility/enumerative.hpp"
#include "obs/metrics.hpp"

namespace optrt::incompress {

namespace {

using bitio::BitReader;
using bitio::BitWriter;
using bitio::id_width;

/// Bit accounting for one completed encode: bits_in is the standard-encoding
/// size n(n−1)/2, bits_out the description actually produced, so
/// bits_in − bits_out across a run equals the total realized savings.
Description record_encode(const char* lemma, Description d) {
  auto& reg = obs::MetricsRegistry::global();
  const std::string base = std::string("codec.") + lemma;
  reg.counter(base + ".encodes").inc();
  reg.counter(base + ".bits_in").inc(d.original_bits);
  reg.counter(base + ".bits_out").inc(d.bits.size());
  return d;
}

void record_decode(const char* lemma) {
  obs::counter(std::string("codec.") + lemma + ".decodes").inc();
}

/// The incidence row of u: one bit per node v != u in increasing order.
bitio::BitVector incidence_row(const graph::Graph& g, NodeId u) {
  bitio::BitVector row;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (v != u) row.push_back(g.has_edge(u, v));
  }
  return row;
}

/// Streams E(G) skipping positions for which `skip(a, b)` is true.
void write_eg_except(BitWriter& w, const graph::Graph& g, auto&& skip) {
  const std::size_t n = g.node_count();
  for (NodeId a = 0; a + 1 < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      if (skip(a, b)) continue;
      w.write_bit(g.has_edge(a, b));
    }
  }
}

}  // namespace

// --- Lemma 1 -----------------------------------------------------------------

NodeId most_deviant_node(const graph::Graph& g) {
  const double half = (static_cast<double>(g.node_count()) - 1.0) / 2.0;
  NodeId best = 0;
  double best_dev = -1.0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const double dev = std::abs(static_cast<double>(g.degree(u)) - half);
    if (dev > best_dev) {
      best_dev = dev;
      best = u;
    }
  }
  return best;
}

Description lemma1_encode(const graph::Graph& g, NodeId u) {
  const std::size_t n = g.node_count();
  BitWriter w;
  w.write_bits(u, id_width(n));
  write_fixed_weight(w, incidence_row(g, u));  // degree + ensemble index
  write_eg_except(w, g,
                  [u](NodeId a, NodeId b) { return a == u || b == u; });
  return record_encode("lemma1", Description{w.take(), n * (n - 1) / 2});
}

graph::Graph lemma1_decode(const bitio::BitVector& bits, std::size_t n) {
  record_decode("lemma1");
  BitReader r(bits);
  const auto u = static_cast<NodeId>(r.read_bits(id_width(n)));
  const bitio::BitVector row = read_fixed_weight(r, n - 1);
  std::vector<graph::Edge> edges;
  {
    std::size_t i = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (v == u) continue;
      if (row.get(i++)) edges.emplace_back(u, v);
    }
  }
  for (NodeId a = 0; a + 1 < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      if (a == u || b == u) continue;
      if (r.read_bit()) edges.emplace_back(a, b);
    }
  }
  return graph::Graph(n, edges);
}

// --- Lemma 2 -----------------------------------------------------------------

std::optional<std::pair<NodeId, NodeId>> find_distant_pair(
    const graph::Graph& g) {
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto dist = graph::bfs_distances(g, u);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (v != u && (dist[v] == graph::kUnreachable || dist[v] > 2)) {
        return std::make_pair(u, v);
      }
    }
  }
  return std::nullopt;
}

Description lemma2_encode(const graph::Graph& g, NodeId u, NodeId v) {
  const std::size_t n = g.node_count();
  for (NodeId w : g.neighbors(u)) {
    if (w == v || g.has_edge(w, v)) {
      throw std::invalid_argument("lemma2_encode: d(u,v) <= 2, not a witness");
    }
  }
  BitWriter w;
  w.write_bits(u, id_width(n));
  w.write_bits(v, id_width(n));
  const bitio::BitVector row = incidence_row(g, u);
  w.write_vector(row);
  // Skip u's row and the known-zero edges {w, v}, w ∈ N(u).
  write_eg_except(w, g, [&g, u, v](NodeId a, NodeId b) {
    if (a == u || b == u) return true;
    if (b == v && g.has_edge(u, a)) return true;
    if (a == v && g.has_edge(u, b)) return true;
    return false;
  });
  return record_encode("lemma2", Description{w.take(), n * (n - 1) / 2});
}

graph::Graph lemma2_decode(const bitio::BitVector& bits, std::size_t n) {
  record_decode("lemma2");
  BitReader r(bits);
  const auto u = static_cast<NodeId>(r.read_bits(id_width(n)));
  const auto v = static_cast<NodeId>(r.read_bits(id_width(n)));
  std::vector<graph::Edge> edges;
  std::vector<bool> near_u(n, false);  // N(u)
  for (NodeId x = 0; x < n; ++x) {
    if (x == u) continue;
    if (r.read_bit()) {
      edges.emplace_back(u, x);
      near_u[x] = true;
    }
  }
  for (NodeId a = 0; a + 1 < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      if (a == u || b == u) continue;
      // Edges {w, v} with w ∈ N(u) are known absent.
      if ((b == v && near_u[a]) || (a == v && near_u[b])) continue;
      if (r.read_bit()) edges.emplace_back(a, b);
    }
  }
  return graph::Graph(n, edges);
}

// --- Lemma 3 -----------------------------------------------------------------

std::optional<std::pair<NodeId, NodeId>> find_cover_violation(
    const graph::Graph& g, std::size_t prefix) {
  const std::size_t n = g.node_count();
  for (NodeId u = 0; u < n; ++u) {
    const auto nbrs = g.neighbors(u);
    const std::size_t limit = std::min(prefix, nbrs.size());
    for (NodeId w = 0; w < n; ++w) {
      if (w == u || g.has_edge(u, w)) continue;
      bool covered = false;
      for (std::size_t i = 0; i < limit; ++i) {
        if (g.has_edge(nbrs[i], w)) {
          covered = true;
          break;
        }
      }
      if (!covered) return std::make_pair(u, w);
    }
  }
  return std::nullopt;
}

Description lemma3_encode(const graph::Graph& g, NodeId u, NodeId w,
                          std::size_t prefix) {
  const std::size_t n = g.node_count();
  const auto nbrs = g.neighbors(u);
  if (nbrs.size() < prefix) {
    throw std::invalid_argument("lemma3_encode: deg(u) < prefix");
  }
  if (g.has_edge(u, w)) {
    throw std::invalid_argument("lemma3_encode: w adjacent to u");
  }
  for (std::size_t i = 0; i < prefix; ++i) {
    if (g.has_edge(nbrs[i], w)) {
      throw std::invalid_argument("lemma3_encode: w covered, not a witness");
    }
  }

  BitWriter out;
  out.write_bits(u, id_width(n));
  out.write_bits(w, id_width(n));
  out.write_vector(incidence_row(g, u));
  // w's row, omitting the known-zero bits for u and u's first `prefix`
  // least neighbours.
  for (NodeId x = 0; x < n; ++x) {
    if (x == w || x == u) continue;
    bool skip = false;
    for (std::size_t i = 0; i < prefix; ++i) {
      if (nbrs[i] == x) {
        skip = true;
        break;
      }
    }
    if (!skip) out.write_bit(g.has_edge(w, x));
  }
  // The rest of E(G) without u's and w's rows.
  write_eg_except(out, g, [u, w](NodeId a, NodeId b) {
    return a == u || b == u || a == w || b == w;
  });
  return record_encode("lemma3", Description{out.take(), n * (n - 1) / 2});
}

graph::Graph lemma3_decode(const bitio::BitVector& bits, std::size_t n,
                           std::size_t prefix) {
  record_decode("lemma3");
  BitReader r(bits);
  const auto u = static_cast<NodeId>(r.read_bits(id_width(n)));
  const auto w = static_cast<NodeId>(r.read_bits(id_width(n)));
  std::vector<graph::Edge> edges;
  for (NodeId x = 0; x < n; ++x) {
    if (x == u) continue;
    if (r.read_bit()) edges.emplace_back(u, x);
  }
  // u's least `prefix` neighbours, in increasing order.
  std::vector<NodeId> least;
  for (std::size_t i = 0; i < std::min(prefix, edges.size()); ++i) {
    least.push_back(edges[i].second);
  }
  for (NodeId x = 0; x < n; ++x) {
    if (x == w || x == u) continue;
    if (std::find(least.begin(), least.end(), x) != least.end()) continue;
    if (r.read_bit()) edges.emplace_back(w, x);
  }
  for (NodeId a = 0; a + 1 < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      if (a == u || b == u || a == w || b == w) continue;
      if (r.read_bit()) edges.emplace_back(a, b);
    }
  }
  return graph::Graph(n, edges);
}

}  // namespace optrt::incompress
