#include "schemes/compact_node.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "schemes/errors.hpp"

namespace optrt::schemes {

namespace {

using bitio::BitReader;
using bitio::BitWriter;
using bitio::ceil_log2;
using bitio::ceil_log2_plus1;

// The paper's cut point: remaining non-neighbours allowed in table 2.
std::size_t table2_threshold(std::size_t n, bool threshold_log) {
  const double dn = static_cast<double>(n);
  const double divisor =
      threshold_log ? std::max(1.0, std::log2(dn))
                    : std::max(1.0, std::log2(std::max(2.0, std::log2(dn))));
  return static_cast<std::size_t>(dn / divisor);
}

/// The center count m that opens every table (after the model IB
/// adjacency prefix), checked against u's degree: the header both readers
/// share.
std::size_t read_center_count(BitReader& r, std::size_t n,
                              std::size_t degree) {
  const auto m = static_cast<std::size_t>(r.read_bits(ceil_log2_plus1(n)));
  if (m > degree) {
    throw std::out_of_range("decode_compact_node: center count exceeds degree");
  }
  return m;
}

}  // namespace

CompactNodeBits build_compact_node(const graph::Graph& g, NodeId u,
                                   const CompactNodeOptions& opt) {
  const std::size_t n = g.node_count();
  const graph::NeighborCover cover = opt.greedy_cover
                                         ? graph::greedy_neighbor_cover(g, u)
                                         : graph::least_neighbor_cover(g, u);
  if (!cover.complete) {
    throw SchemeInapplicable(
        "compact node table: some node is farther than 2 hops from node " +
        std::to_string(u));
  }
  const std::size_t m = cover.centers.size();

  // Count per-center first-coverage to find the cut l.
  std::vector<std::size_t> covered_by(m, 0);
  std::size_t a0 = 0;
  for (NodeId w = 0; w < n; ++w) {
    if (cover.coverer[w] != graph::kNoCoverer) {
      ++covered_by[cover.coverer[w]];
      ++a0;
    }
  }
  const std::size_t threshold = table2_threshold(n, opt.threshold_log);
  std::size_t l = 0;
  std::size_t remaining = a0;
  while (l < m && remaining > threshold) {
    remaining -= covered_by[l];
    ++l;
  }

  BitWriter w;
  if (opt.include_adjacency) {
    // Interconnection vector: presence bit for every node != u in order.
    for (NodeId v = 0; v < n; ++v) {
      if (v != u) w.write_bit(g.has_edge(u, v));
    }
  }
  // Header: center count m.
  w.write_bits(m, ceil_log2_plus1(n));
  // Greedy covers must ship the center order (ranks in the sorted
  // neighbour list); least covers are the prefix of the list, free.
  if (opt.greedy_cover) {
    const auto nbrs = g.neighbors(u);
    const unsigned rank_width = ceil_log2(std::max<std::size_t>(nbrs.size(), 1));
    for (NodeId center : cover.centers) {
      const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), center);
      w.write_bits(static_cast<std::uint64_t>(it - nbrs.begin()), rank_width);
    }
  }

  CompactNodeBits out;
  const std::size_t before_t1 = w.bit_count();
  // Table 1: unary "first coverer + 1" for centers below the cut, else 0.
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t c = cover.coverer[v];
    if (c == graph::kNoCoverer) continue;  // u itself or a neighbour
    bitio::write_unary(w, c < l ? c + 1 : 0);
  }
  out.table1_bits = w.bit_count() - before_t1;

  // Table 2: fixed-width coverer indices for the deferred nodes.
  const std::size_t before_t2 = w.bit_count();
  const unsigned index_width = ceil_log2(std::max<std::size_t>(m, 1));
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t c = cover.coverer[v];
    if (c == graph::kNoCoverer || c < l) continue;
    w.write_bits(c, index_width);
  }
  out.table2_bits = w.bit_count() - before_t2;
  out.bits = w.take();
  return out;
}

DecodedCompactNode decode_compact_node(const bitio::BitVector& bits,
                                       std::size_t n, NodeId u,
                                       const CompactNodeOptions& opt,
                                       std::vector<NodeId> free_neighbors) {
  BitReader r(bits);
  DecodedCompactNode node;

  if (opt.include_adjacency) {
    node.neighbors.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (v == u) continue;
      if (r.read_bit()) node.neighbors.push_back(v);
    }
  } else {
    node.neighbors = std::move(free_neighbors);
  }

  const std::size_t m = read_center_count(r, n, node.neighbors.size());

  std::vector<NodeId> centers(m);
  if (opt.greedy_cover) {
    const unsigned rank_width =
        ceil_log2(std::max<std::size_t>(node.neighbors.size(), 1));
    for (std::size_t i = 0; i < m; ++i) {
      const auto rank = static_cast<std::size_t>(r.read_bits(rank_width));
      if (rank >= node.neighbors.size()) {
        throw std::out_of_range("decode_compact_node: bad center rank");
      }
      centers[i] = node.neighbors[rank];
    }
  } else {
    // Least-neighbour centers are the first m sorted neighbours.
    for (std::size_t i = 0; i < m; ++i) centers[i] = node.neighbors[i];
  }

  node.next_of.assign(n, DecodedCompactNode::kInvalid);
  for (NodeId v : node.neighbors) node.next_of[v] = v;

  // Table 1: non-neighbours in increasing order.
  std::vector<NodeId> deferred;
  for (NodeId v = 0; v < n; ++v) {
    if (v == u || node.next_of[v] == v) continue;
    const std::uint64_t t = bitio::read_unary(r);
    if (t > 0) {
      if (t > m) throw std::out_of_range("decode_compact_node: bad unary index");
      node.next_of[v] = centers[t - 1];
    } else {
      deferred.push_back(v);
    }
  }
  // Table 2.
  const unsigned index_width = ceil_log2(std::max<std::size_t>(m, 1));
  for (NodeId v : deferred) {
    const auto index = static_cast<std::size_t>(r.read_bits(index_width));
    if (index >= m) throw std::out_of_range("decode_compact_node: bad index");
    node.next_of[v] = centers[index];
  }
  if (!r.exhausted()) {
    throw std::invalid_argument(
        "decode_compact_node: trailing bits in a node table");
  }
  return node;
}

NodeId compact_node_next_hop(const bitio::BitVector& bits, std::size_t n,
                             NodeId u, std::span<const NodeId> neighbors,
                             NodeId dest) {
  if (dest >= n) throw std::out_of_range("compact_node_next_hop: bad node");
  if (dest == u) return DecodedCompactNode::kInvalid;
  if (std::binary_search(neighbors.begin(), neighbors.end(), dest)) {
    return dest;
  }
  BitReader r(bits);
  // Least-neighbour centers are the first m sorted neighbours.
  const std::size_t m = read_center_count(r, n, neighbors.size());

  // Table 1 holds one unary code per non-neighbour other than u, in
  // increasing order. Past dest's own code, a deferred dest reads on to
  // the end of the table, where table 2 starts.
  std::size_t deferred_before = 0;  // table 2 entries ahead of dest's
  std::size_t k = 0;                // neighbours below v
  for (NodeId v = 0; v < n; ++v) {
    while (k < neighbors.size() && neighbors[k] < v) ++k;
    if (v == u || (k < neighbors.size() && neighbors[k] == v)) continue;
    const std::uint64_t t = bitio::read_unary(r);
    if (v == dest) {
      if (t > m) throw std::out_of_range("decode_compact_node: bad unary index");
      if (t > 0) return neighbors[static_cast<std::size_t>(t - 1)];
    } else if (v < dest && t == 0) {
      ++deferred_before;
    }
  }
  const unsigned index_width = ceil_log2(std::max<std::size_t>(m, 1));
  r.seek(r.position() + deferred_before * index_width);
  const auto index = static_cast<std::size_t>(r.read_bits(index_width));
  if (index >= m) throw std::out_of_range("decode_compact_node: bad index");
  return neighbors[index];
}

model::PackedSparseArray compile_compact_node(
    const bitio::BitVector& bits, std::size_t n, NodeId u,
    const CompactNodeOptions& opt, std::vector<NodeId> free_neighbors) {
  const DecodedCompactNode node =
      decode_compact_node(bits, n, u, opt, std::move(free_neighbors));
  bitio::BitVector mask(n);
  std::vector<std::uint32_t> centers;
  for (NodeId v = 0; v < n; ++v) {
    const NodeId hop = node.next_of[v];
    if (hop == DecodedCompactNode::kInvalid || hop == v) continue;
    mask.set(v, true);
    centers.push_back(hop);
  }
  return model::PackedSparseArray(std::move(mask), centers,
                                  bitio::id_width(n));
}

}  // namespace optrt::schemes
