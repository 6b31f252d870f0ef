#include "schemes/compact_node.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <vector>

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

/// u's neighbours as a table reads them: the sorted list model II gets for
/// free, or model IB's n−1 presence bits at the front of the table (node
/// v ≠ u at bit v − [v > u]). Neither is copied.
class Neighbors {
 public:
  /// Model II: `sorted` is u's sorted neighbour list.
  Neighbors(std::span<const NodeId> sorted, std::size_t n, NodeId u)
      : list_(sorted), n_(n), u_(u), degree_(sorted.size()) {}

  /// Model IB: reads the presence bits off the front of the table, a word
  /// at a time; a table shorter than them throws BitReader's out_of_range.
  Neighbors(BitReader& r, const bitio::BitVector& bits, std::size_t n,
            NodeId u)
      : prefix_(&bits), n_(n), u_(u) {
    for (std::size_t left = n - 1; left > 0;) {
      const auto chunk = static_cast<unsigned>(std::min<std::size_t>(left, 64));
      degree_ += static_cast<std::size_t>(std::popcount(r.read_bits(chunk)));
      left -= chunk;
    }
  }

  [[nodiscard]] std::size_t degree() const { return degree_; }

  /// Precondition: v < n and v ≠ u.
  [[nodiscard]] bool contains(NodeId v) const {
    if (prefix_ == nullptr) {
      return std::binary_search(list_.begin(), list_.end(), v);
    }
    return prefix_->get(v > u_ ? v - 1 : v);
  }

  /// The r-th least neighbour. Precondition: r < degree().
  [[nodiscard]] NodeId at_rank(std::size_t r) const {
    if (prefix_ == nullptr) return list_[r];
    for (std::size_t i = 0;; ++i) {
      std::uint64_t word = row_word(i);
      const auto count = static_cast<std::size_t>(std::popcount(word));
      if (r < count) {
        for (; r > 0; --r) word &= word - 1;
        return static_cast<NodeId>(64 * i + std::countr_zero(word));
      }
      r -= count;
    }
  }

  /// Nodes [64i, 64i + 64) of the routed set — the nodes other than u
  /// that are not neighbours, one table entry each — as a mask word.
  [[nodiscard]] std::uint64_t routed_word(std::size_t i) const {
    const std::size_t base = 64 * i;
    std::uint64_t word = ~row_word(i);
    if (n_ - base < 64) word &= (std::uint64_t{1} << (n_ - base)) - 1;
    if (u_ >= base && u_ - base < 64) {
      word &= ~(std::uint64_t{1} << (u_ - base));
    }
    return word;
  }

 private:
  /// Nodes [64i, 64i + 64) of u's adjacency row as a mask word.
  [[nodiscard]] std::uint64_t row_word(std::size_t i) const {
    const std::size_t base = 64 * i;
    std::uint64_t word = 0;
    if (prefix_ == nullptr) {
      for (auto it = std::lower_bound(list_.begin(), list_.end(), base);
           it != list_.end() && *it < base + 64; ++it) {
        word |= std::uint64_t{1} << (*it - base);
      }
      return word;
    }
    // Presence bit p is node p below u and node p + 1 above it.
    const std::size_t end = std::min(base + 64, n_);
    const std::size_t below = std::min<std::size_t>(u_, end);
    if (below > base) {
      word = prefix_->get_bits(base, static_cast<unsigned>(below - base));
    }
    const std::size_t above = std::max<std::size_t>(u_ + std::size_t{1}, base);
    if (end > above) {
      word |= prefix_->get_bits(above - 1, static_cast<unsigned>(end - above))
              << (above - base);
    }
    return word;
  }

  std::span<const NodeId> list_;
  const bitio::BitVector* prefix_ = nullptr;  // model IB only
  std::size_t n_;
  NodeId u_;
  std::size_t degree_ = 0;
};

/// What follows the neighbours in every table: the center count m, checked
/// against u's degree, and under a greedy cover the m center ranks, each
/// checked below the degree. Reading it leaves r at table 1.
class Centers {
 public:
  Centers(BitReader& r, std::size_t n, const Neighbors& neighbors,
          bool greedy_cover)
      : greedy_(greedy_cover),
        m_(static_cast<std::size_t>(r.read_bits(ceil_log2_plus1(n)))) {
    if (m_ > neighbors.degree()) {
      throw std::out_of_range(
          "decode_compact_node: center count exceeds degree");
    }
    ranks_at_ = r.position();
    if (!greedy_) return;
    rank_width_ = ceil_log2(std::max<std::size_t>(neighbors.degree(), 1));
    for (std::size_t i = 0; i < m_; ++i) {
      if (r.read_bits(rank_width_) >= neighbors.degree()) {
        throw std::out_of_range("decode_compact_node: bad center rank");
      }
    }
  }

  [[nodiscard]] std::size_t count() const { return m_; }

  /// The c-th center (c < count()): u's c-th least neighbour, or under a
  /// greedy cover the neighbour of the c-th stored rank.
  [[nodiscard]] NodeId at(const bitio::BitVector& bits,
                          const Neighbors& neighbors, std::size_t c) const {
    if (!greedy_) return neighbors.at_rank(c);
    return neighbors.at_rank(static_cast<std::size_t>(
        bits.get_bits(ranks_at_ + c * rank_width_, rank_width_)));
  }

 private:
  bool greedy_;
  std::size_t m_;
  std::size_t ranks_at_ = 0;
  unsigned rank_width_ = 0;
};

Neighbors read_neighbors(BitReader& r, const bitio::BitVector& bits,
                         std::size_t n, NodeId u, const CompactNodeOptions& opt,
                         std::span<const NodeId> free_neighbors) {
  if (opt.include_adjacency) return Neighbors(r, bits, n, u);
  return Neighbors(free_neighbors, n, u);
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

NodeId compact_node_next_hop(const bitio::BitVector& bits, std::size_t n,
                             NodeId u, const CompactNodeOptions& opt,
                             std::span<const NodeId> free_neighbors,
                             NodeId dest) {
  if (dest >= n) throw std::out_of_range("compact_node_next_hop: bad node");
  if (dest == u) return kNoHop;
  BitReader r(bits);
  const Neighbors neighbors =
      read_neighbors(r, bits, n, u, opt, free_neighbors);
  if (neighbors.contains(dest)) return dest;
  const Centers centers(r, n, neighbors, opt.greedy_cover);
  const std::size_t m = centers.count();

  // Table 1 holds one unary code per routed node, in increasing order.
  // Past dest's own code, a deferred dest reads on to the end of the
  // table, where table 2 starts.
  std::size_t deferred_before = 0;  // table 2 entries ahead of dest's
  for (std::size_t i = 0; 64 * i < n; ++i) {
    for (std::uint64_t word = neighbors.routed_word(i); word != 0;
         word &= word - 1) {
      const auto v = static_cast<NodeId>(64 * i + std::countr_zero(word));
      const std::uint64_t t = bitio::read_unary(r);
      if (v == dest) {
        if (t > m) {
          throw std::out_of_range("decode_compact_node: bad unary index");
        }
        if (t > 0) {
          return centers.at(bits, neighbors, static_cast<std::size_t>(t - 1));
        }
      } else if (v < dest && t == 0) {
        ++deferred_before;
      }
    }
  }
  const unsigned index_width = ceil_log2(std::max<std::size_t>(m, 1));
  r.seek(r.position() + deferred_before * index_width);
  const auto index = static_cast<std::size_t>(r.read_bits(index_width));
  if (index >= m) throw std::out_of_range("decode_compact_node: bad index");
  return centers.at(bits, neighbors, index);
}

model::PackedSparseArray compile_compact_node(
    const bitio::BitVector& bits, std::size_t n, NodeId u,
    const CompactNodeOptions& opt, std::span<const NodeId> free_neighbors) {
  BitReader r(bits);
  const Neighbors neighbors =
      read_neighbors(r, bits, n, u, opt, free_neighbors);
  const Centers centers(r, n, neighbors, opt.greedy_cover);
  const std::size_t m = centers.count();
  std::vector<NodeId> center(m);
  for (std::size_t c = 0; c < m; ++c) {
    center[c] = centers.at(bits, neighbors, c);
  }

  std::vector<std::uint64_t> routed((n + 63) / 64);
  std::size_t entries = 0;
  for (std::size_t i = 0; i < routed.size(); ++i) {
    routed[i] = neighbors.routed_word(i);
    entries += static_cast<std::size_t>(std::popcount(routed[i]));
  }
  // Table 1: a unary "center index + 1" per routed node, or 0 to defer the
  // node to table 2, whose fixed-width indices follow in node order.
  constexpr std::uint32_t kDeferred = kNoHop;
  std::vector<std::uint32_t> hops(entries);
  for (std::uint32_t& hop : hops) {
    const std::uint64_t t = bitio::read_unary(r);
    if (t > m) throw std::out_of_range("decode_compact_node: bad unary index");
    hop = t > 0 ? center[static_cast<std::size_t>(t - 1)] : kDeferred;
  }
  const unsigned index_width = ceil_log2(std::max<std::size_t>(m, 1));
  for (std::uint32_t& hop : hops) {
    if (hop != kDeferred) continue;
    const auto index = static_cast<std::size_t>(r.read_bits(index_width));
    if (index >= m) throw std::out_of_range("decode_compact_node: bad index");
    hop = center[index];
  }
  if (!r.exhausted()) {
    throw std::invalid_argument(
        "decode_compact_node: trailing bits in a node table");
  }
  return model::PackedSparseArray(bitio::BitVector(std::move(routed), n), hops,
                                  bitio::id_width(n));
}

}  // namespace optrt::schemes
