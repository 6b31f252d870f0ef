// Query-optimized routing: compiled fast paths and batched lookups.
//
// A FastPath is a scheme's serialized routing function *compiled once*
// into flat, cache-friendly structures — membership bit-vectors with
// per-word rank counts, bit-packed fixed-width value arrays, and CSR
// port→neighbour tables (graph::CsrGraph) — so a
// lookup is a handful of word reads instead of a decode loop. Most
// schemes build theirs in the constructor, through the same validating
// decode that reads an artifact, and answer next_hop from it; the bits
// stay the only other thing they store.
//
// Contract: a FastPath answers exactly the *first hop* question —
// next_hop(u, dest) must equal what RoutingScheme::next_hop(u, dest, h)
// returns for a fresh MessageHeader h, and what the bit-decoding
// RoutingScheme::reference_next_hop returns, including thrown exceptions.
// The differential suite (tests/fastpath_test.cpp) holds every compiled
// form to that bit-for-bit standard before any benchmark number counts.
//
// Compiled fast paths own everything they consult and stay valid after
// the source scheme is destroyed; only the generic fallback (for schemes
// without a compiled form) borrows the scheme.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bitio/bit_vector.hpp"
#include "graph/graph.hpp"

namespace optrt::model {

class RoutingScheme;

/// One (source, destination-label) query.
struct RoutePair {
  graph::NodeId src = 0;
  graph::NodeId dst_label = 0;
};

/// A compiled, immutable first-hop oracle for one routing scheme.
class FastPath {
 public:
  virtual ~FastPath() = default;

  /// Name of the scheme this fast path was compiled from.
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::size_t node_count() const = 0;

  /// First hop from internal node `u` toward external label `dest_label`;
  /// identical (including exceptions) to the scheme's next_hop with a
  /// fresh MessageHeader. Precondition: dest_label != label_of(u).
  [[nodiscard]] virtual graph::NodeId next_hop(
      graph::NodeId u, graph::NodeId dest_label) const = 0;

  /// Answers every pair into out_hops (same index). Throws
  /// std::invalid_argument on span length mismatch. Bumps the lookup.*
  /// counters once per batch, never per pair.
  void route_batch(std::span<const RoutePair> pairs,
                   std::span<graph::NodeId> out_hops) const;

 protected:
  /// Batch kernel; default loops next_hop. Compiled forms may override
  /// with a monomorphic loop (no per-pair virtual dispatch).
  virtual void batch_impl(std::span<const RoutePair> pairs,
                          std::span<graph::NodeId> out_hops) const;
};

/// Generic fallback: wraps the scheme's own next_hop with a fresh header
/// per call. Used by schemes without a compiled form; borrows the scheme,
/// which must outlive the fast path.
[[nodiscard]] std::shared_ptr<const FastPath> make_fallback_fastpath(
    const RoutingScheme& scheme);

/// Records one compiled-form build in the lookup.* counters
/// (lookup.compiled and lookup.compiled.<tag>).
void note_fastpath_compiled(const std::string& tag);

/// Reads `width` bits starting at absolute bit `pos` from a packed word
/// array, LSB-first (BitVector layout). Precondition: width <= 57 and the
/// read stays inside words padded with at least one trailing slack word —
/// PackedValueArray guarantees both.
[[nodiscard]] inline std::uint64_t read_packed(
    const std::uint64_t* words, std::size_t pos, unsigned width) noexcept {
  if (width == 0) return 0;
  const std::size_t w = pos >> 6;
  const unsigned off = static_cast<unsigned>(pos & 63);
  std::uint64_t v = words[w] >> off;
  if (off + width > 64) v |= words[w + 1] << (64 - off);
  return v & ((std::uint64_t{1} << width) - 1);
}

/// Smallest width >= `needed` that divides 64, so consecutive packed
/// entries never straddle a word boundary: read_packed's straddle branch
/// becomes never-taken (perfectly predicted) and every read is one load.
/// Dense batch-hot tables pad to this; sparse tables keep the exact width.
/// Precondition: needed <= 32.
[[nodiscard]] constexpr unsigned straddle_free_width(
    unsigned needed) noexcept {
  unsigned w = needed == 0 ? 1 : needed;
  while (64 % w != 0) ++w;
  return w;
}

/// Fixed-width values packed back to back in one word array, with a
/// trailing slack word so read_packed never reads past the end.
class PackedValueArray {
 public:
  PackedValueArray() = default;
  PackedValueArray(std::span<const std::uint32_t> values, unsigned width);

  [[nodiscard]] std::uint64_t at(std::size_t i) const noexcept {
    return read_packed(words_.data(), i * width_, width_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] unsigned width() const noexcept { return width_; }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
  unsigned width_ = 0;
};

/// A sparse map position → value: a membership bit-vector with O(1) rank
/// plus the values of the member positions, bit-packed in rank order.
/// This is the succinct backbone shared by the compiled table forms: the
/// compact-node "next hop per non-neighbour" tables, the hub and
/// routing-center tables, landmark vicinities, and hierarchical target
/// sets all reduce to it. Everything lives in one word array: each
/// 64-position membership word is followed by the count of members
/// before it, so contains() and the rank behind value() read one adjacent
/// pair of words; the packed values come after the last pair.
class PackedSparseArray {
 public:
  PackedSparseArray() = default;
  /// `mask` marks member positions; `values[i]` belongs to the i-th
  /// member in increasing position order (so values.size() must equal
  /// mask.popcount()).
  PackedSparseArray(const bitio::BitVector& mask,
                    std::span<const std::uint32_t> values, unsigned width);

  /// Precondition: pos < size().
  [[nodiscard]] bool contains(std::size_t pos) const noexcept {
    return (words_[2 * (pos >> 6)] >> (pos & 63)) & 1u;
  }
  /// Value at a member position. Precondition: contains(pos).
  [[nodiscard]] std::uint64_t value(std::size_t pos) const noexcept {
    const std::size_t pair = 2 * (pos >> 6);
    const std::uint64_t below =
        words_[pair] & ((std::uint64_t{1} << (pos & 63)) - 1);
    const std::size_t rank = words_[pair + 1] + std::popcount(below);
    return read_packed(words_.data() + values_at_, rank * width_, width_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t member_count() const noexcept { return members_; }

 private:
  // [mask word, members before it] per 64 positions, then the packed
  // values, then one slack word for read_packed.
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
  std::size_t members_ = 0;
  std::size_t values_at_ = 0;  // index of the first value word
  unsigned width_ = 0;
};

/// Self-contained copy of a graph's packed adjacency matrix: the O(1)
/// edge test the model-II compiled forms need, without borrowing the
/// Graph they were built from.
class AdjacencyBits {
 public:
  AdjacencyBits() = default;
  explicit AdjacencyBits(const graph::Graph& g)
      : words_per_row_((g.node_count() + 63) / 64) {
    words_.reserve(g.node_count() * words_per_row_);
    for (graph::NodeId u = 0; u < g.node_count(); ++u) {
      const auto row = g.row_words(u);
      words_.insert(words_.end(), row.begin(), row.end());
    }
  }

  [[nodiscard]] bool has_edge(graph::NodeId u,
                              graph::NodeId v) const noexcept {
    const std::size_t i =
        static_cast<std::size_t>(u) * words_per_row_ + (v >> 6);
    return (words_[i] >> (v & 63)) & 1u;
  }

 private:
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace optrt::model
