// Query-optimized routing: compiled fast paths and batched lookups.
//
// A FastPath is a scheme's serialized routing function *compiled once*
// into flat, cache-friendly structures — membership bit-vectors with
// per-word rank counts, bit-packed fixed-width value arrays, and, where the
// lookup reads the network (port → neighbour, model II's free edge test),
// a graph::Graph, which shares the source graph's adjacency rather than
// copying it — so a lookup is a handful of word reads instead of a decode
// loop. Most schemes build theirs in the constructor, through the same
// validating decode that reads an artifact, and answer next_hop from it;
// the bits stay the only other thing they store.
//
// Branch-free selection: a compiled form's next_hop branches only on errors
// (routing to self, a corrupt table) and on per-table constants (a width, a
// level count), or on a per-source fact that is nearly always one way (u is
// the hub). It never branches on a per-pair membership or adjacency bit:
// on the paper's G(n,1/2) whether a destination is a neighbour, or listed
// in a table, is a fair coin for each pair, and a branch on it mispredicts
// about every other pair of a uniform batch. Instead the form computes both
// candidate answers and picks one with select(); PackedSparseArray's
// value_or() is the sparse-table read that does so. TZ is the exception:
// its clusters on Internet-like graphs are small, so its membership branch
// predicts well and runs as fast on uniform pairs as on pairs grouped by
// adjacency (bench_lookup's fast_grouped_ns_per_lookup column).
//
// Contract: a FastPath answers exactly the *first hop* question —
// next_hop(u, dest) must equal what RoutingScheme::next_hop(u, dest, h)
// returns for a fresh MessageHeader h, and what the bit-decoding
// RoutingScheme::reference_next_hop returns, including thrown exceptions.
// The differential suite (tests/fastpath_test.cpp) holds every compiled
// form to that bit-for-bit standard before any benchmark number counts.
//
// Compiled fast paths own everything they consult, the graph through its
// shared block, and stay valid after the source scheme and the Graph it
// was built from are destroyed; only the generic fallback (for schemes
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
  /// Batch kernel: DirectBatchFastPath's loop over next_hop, or a
  /// form's own kernel.
  virtual void batch_impl(std::span<const RoutePair> pairs,
                          std::span<graph::NodeId> out_hops) const = 0;
};

/// Base of a final compiled form whose batch kernel calls Self::next_hop
/// without virtual dispatch. The loop inlines it, so what stays fixed
/// across pairs, such as the shared graph block's address, can stay in a
/// register instead of being reloaded behind a call per pair.
template <typename Self>
class DirectBatchFastPath : public FastPath {
 protected:
  void batch_impl(std::span<const RoutePair> pairs,
                  std::span<graph::NodeId> out_hops) const override {
    const Self& self = static_cast<const Self&>(*this);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      out_hops[i] = self.Self::next_hop(pairs[i].src, pairs[i].dst_label);
    }
  }
};

/// Generic fallback: wraps the scheme's own next_hop with a fresh header
/// per call. Used by schemes without a compiled form; borrows the scheme,
/// which must outlive the fast path.
[[nodiscard]] std::shared_ptr<const FastPath> make_fallback_fastpath(
    const RoutingScheme& scheme);

/// Records one compiled-form build in the lookup.* counters
/// (lookup.compiled and lookup.compiled.<tag>).
void note_fastpath_compiled(const std::string& tag);

/// `a` when `bit` is set, `b` otherwise, computed with arithmetic rather
/// than a branch: b ^ ((a ^ b) & -bit).
template <typename T>
[[nodiscard]] constexpr T select(bool bit, T a, T b) noexcept {
  return static_cast<T>(b ^ ((a ^ b) & (T{0} - static_cast<T>(bit))));
}

/// Reads `width` bits starting at absolute bit `pos` from a packed word
/// array, LSB-first (BitVector layout). Precondition: width <= 57 and the
/// read stays inside words padded with at least one trailing slack word —
/// PackedValueArray guarantees both. The straddle test stays a branch: a
/// branch-free straddle read measured no faster on landmark tables and
/// slower on TZ's, whose straddles follow the table width.
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
  /// Value at `pos` for a member, `fallback` otherwise, without a branch
  /// on membership: the mask word, the rank and the packed value are read
  /// unconditionally. A non-member past the last member has rank
  /// member_count(), so its read lands in the slack word. Precondition:
  /// pos < size().
  [[nodiscard]] std::uint64_t value_or(std::size_t pos,
                                       std::uint64_t fallback) const noexcept {
    const std::size_t pair = 2 * (pos >> 6);
    const unsigned bit = static_cast<unsigned>(pos & 63);
    const std::uint64_t word = words_[pair];
    const std::uint64_t below = word & ((std::uint64_t{1} << bit) - 1);
    const std::size_t rank = words_[pair + 1] + std::popcount(below);
    const std::uint64_t stored =
        read_packed(words_.data() + values_at_, rank * width_, width_);
    return select(((word >> bit) & 1u) != 0, stored, fallback);
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

}  // namespace optrt::model
