#include "schemes/full_table.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "model/fastpath.hpp"

// The batched lookup kernel has an AVX-512 gather variant selected at
// runtime (__builtin_cpu_supports); the scalar loop remains the portable
// reference and the differential suite holds both to the same answers.
// Neither branches on a per-pair bit but the routing-to-self sentinel,
// which a valid batch never takes: at about 0.35 ns per pair there is no
// membership branch to remove.
#if defined(__x86_64__) && defined(__GNUC__)
#define OPTRT_FULLTABLE_SIMD 1
#include <immintrin.h>
#endif

namespace optrt::schemes {

bitio::BitVector full_table_node_bits(const graph::Graph& g,
                                      const graph::DistanceMatrix& dist,
                                      const graph::PortAssignment& ports,
                                      const graph::Labeling& labeling,
                                      NodeId u) {
  const std::size_t n = g.node_count();
  const unsigned width = bitio::port_width(g.degree(u));
  bitio::BitWriter w;
  // One entry per destination *label* so lookups index by label directly.
  for (NodeId label = 0; label < n; ++label) {
    const NodeId v = labeling.node_of(label);
    graph::PortId port = 0;
    if (v != u && dist.at(u, v) != graph::kUnreachable) {
      const auto successors = graph::shortest_path_successors(g, dist, u, v);
      port = ports.port_of(u, successors.front());
    }
    w.write_bits(port, width);
  }
  return w.take();
}

FullTableScheme::FullTableScheme(const graph::Graph& g,
                                 graph::PortAssignment ports,
                                 graph::Labeling labeling,
                                 model::Model declared_model)
    : n_(g.node_count()),
      model_(declared_model),
      ports_(std::move(ports)),
      labeling_(std::move(labeling)) {
  const auto dist_cached = graph::DistanceCache::global().get(g);
  width_.resize(n_);
  table_bits_.resize(n_);
  for (NodeId u = 0; u < n_; ++u) {
    width_[u] = bitio::port_width(g.degree(u));
    table_bits_[u] =
        full_table_node_bits(g, *dist_cached, ports_, labeling_, u);
  }
}

FullTableScheme::FullTableScheme(const graph::Graph& g,
                                 graph::PortAssignment ports,
                                 graph::Labeling labeling,
                                 model::Model declared_model,
                                 std::vector<bitio::BitVector> tables)
    : n_(g.node_count()),
      model_(declared_model),
      ports_(std::move(ports)),
      labeling_(std::move(labeling)),
      table_bits_(std::move(tables)) {
  if (table_bits_.size() != n_) {
    throw std::invalid_argument("FullTableScheme: node count mismatch");
  }
  width_.resize(n_);
  for (NodeId u = 0; u < n_; ++u) {
    width_[u] = bitio::port_width(g.degree(u));
    if (table_bits_[u].size() != n_ * width_[u]) {
      throw std::invalid_argument("FullTableScheme: table length mismatch");
    }
    // Eager entry validation: next_hop indexes the port assignment
    // unchecked, so no stored port may reach the query path out of range.
    const std::size_t degree = std::max<std::size_t>(g.degree(u), 1);
    bitio::BitReader r(table_bits_[u]);
    for (NodeId label = 0; label < n_; ++label) {
      if (r.read_bits(width_[u]) >= degree) {
        throw std::invalid_argument(
            "FullTableScheme: stored port exceeds the node degree");
      }
    }
  }
}

FullTableScheme FullTableScheme::standard(const graph::Graph& g) {
  return FullTableScheme(g, graph::PortAssignment::sorted(g),
                         graph::Labeling::identity(g.node_count()),
                         model::kIAalpha);
}

NodeId FullTableScheme::next_hop(NodeId u, NodeId dest_label,
                                 model::MessageHeader&) const {
  if (dest_label == labeling_.label_of(u)) {
    throw std::invalid_argument("FullTableScheme: routing to self");
  }
  bitio::BitReader r(table_bits_[u]);
  r.seek(static_cast<std::size_t>(dest_label) * width_[u]);
  const auto port = static_cast<graph::PortId>(r.read_bits(width_[u]));
  return ports_.neighbor_at(u, port);
}

namespace {

/// The table compiled to its query-optimal shape: every port entry is
/// resolved to its next-hop *node id* at compile time and the answers are
/// bit-packed at one straddle-free width with rows padded to a
/// power-of-two stride, so a lookup is shifts plus a single in-word
/// extraction — no BitReader, no multiplies on the address chain, no port
/// resolve. The routing-to-self slots (and the padding slots) hold the
/// sentinel value n, so the self check rides on the same load instead of
/// touching a second array.
class FullTableFastPath final : public model::FastPath {
 public:
  FullTableFastPath(std::size_t n, std::vector<std::uint64_t> words,
                    unsigned row_shift, unsigned entry_shift)
      : n_(n),
        words_(std::move(words)),
        row_shift_(row_shift),
        entry_shift_(entry_shift),
        mask_((std::uint64_t{1} << (std::uint64_t{1} << entry_shift)) - 1) {}

  [[nodiscard]] std::string name() const override { return "full-table"; }
  [[nodiscard]] std::size_t node_count() const override { return n_; }

  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label) const override {
    const std::uint64_t hop = entry(u, dest_label);
    if (hop == n_) {
      throw std::invalid_argument("FullTableScheme: routing to self");
    }
    return static_cast<NodeId>(hop);
  }

 protected:
  void batch_impl(std::span<const model::RoutePair> pairs,
                  std::span<NodeId> out_hops) const override {
#if defined(OPTRT_FULLTABLE_SIMD)
    if (use_simd_ && pairs.size() >= 8) {
      batch_avx512(pairs, out_hops);
      return;
    }
#endif
    batch_scalar(pairs, out_hops, 0);
  }

 private:
  [[nodiscard]] std::uint64_t entry(NodeId u, NodeId dest) const noexcept {
    const std::size_t pos =
        ((std::size_t{u} << row_shift_) + dest) << entry_shift_;
    return (words_[pos >> 6] >> (pos & 63)) & mask_;
  }

  void batch_scalar(std::span<const model::RoutePair> pairs,
                    std::span<NodeId> out_hops, std::size_t from) const {
    for (std::size_t i = from; i < pairs.size(); ++i) {
      const auto [u, dest] = pairs[i];
      const std::uint64_t hop = entry(u, dest);
      if (hop == n_) {
        throw std::invalid_argument("FullTableScheme: routing to self");
      }
      out_hops[i] = static_cast<NodeId>(hop);
    }
  }

#if defined(OPTRT_FULLTABLE_SIMD)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"  // gcc avx512 headers
  // Eight lookups per iteration: the packed positions are pure shift
  // arithmetic on the (src, dest) lanes, the table words come in through
  // one gather, and the sentinel test folds into a lane mask. A batch
  // containing a routing-to-self pair re-runs the scalar loop so the
  // exception surfaces at the first offending pair, exactly like the
  // scalar kernel.
  __attribute__((target("avx512f"))) void batch_avx512(
      std::span<const model::RoutePair> pairs,
      std::span<NodeId> out_hops) const {
    static_assert(sizeof(model::RoutePair) == 8);
    const __m512i low32 = _mm512_set1_epi64(0xffffffffLL);
    const __m512i six3 = _mm512_set1_epi64(63);
    const __m512i vmask = _mm512_set1_epi64(static_cast<long long>(mask_));
    const __m512i vsent = _mm512_set1_epi64(static_cast<long long>(n_));
    const __m128i rsh = _mm_cvtsi32_si128(static_cast<int>(row_shift_));
    const __m128i esh = _mm_cvtsi32_si128(static_cast<int>(entry_shift_));
    const std::uint64_t* base = words_.data();
    __mmask8 bad = 0;
    std::size_t i = 0;
    for (; i + 8 <= pairs.size(); i += 8) {
      const __m512i p = _mm512_loadu_si512(pairs.data() + i);
      const __m512i u = _mm512_and_epi64(p, low32);   // RoutePair::src
      const __m512i d = _mm512_srli_epi64(p, 32);     // RoutePair::dst_label
      const __m512i pos = _mm512_sll_epi64(
          _mm512_add_epi64(_mm512_sll_epi64(u, rsh), d), esh);
      const __m512i words =
          _mm512_i64gather_epi64(_mm512_srli_epi64(pos, 6), base, 8);
      const __m512i hop = _mm512_and_epi64(
          _mm512_srlv_epi64(words, _mm512_and_epi64(pos, six3)), vmask);
      bad |= _mm512_cmpeq_epi64_mask(hop, vsent);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out_hops.data() + i),
                          _mm512_cvtepi64_epi32(hop));
    }
    if (bad != 0) {
      batch_scalar(pairs, out_hops, 0);  // throws at the first self pair
      return;
    }
    batch_scalar(pairs, out_hops, i);  // tail
  }
#pragma GCC diagnostic pop
#endif

  std::size_t n_;
  std::vector<std::uint64_t> words_;  // [u << row_shift | dest] -> hop | n
  unsigned row_shift_;    // log2 of the padded entries per row
  unsigned entry_shift_;  // log2 of the entry width in bits
  std::uint64_t mask_;
#if defined(OPTRT_FULLTABLE_SIMD)
  bool use_simd_ = __builtin_cpu_supports("avx512f") > 0;
#endif
};

}  // namespace

std::shared_ptr<const model::FastPath> FullTableScheme::compile_fast() const {
  // Straddle-free width is a divisor of 64 — always a power of two — and
  // rows pad to the next power of two of n, so lookups address by shifts.
  const unsigned width = model::straddle_free_width(bitio::ceil_log2_plus1(n_));
  const auto entry_shift =
      static_cast<unsigned>(std::countr_zero(std::uint64_t{width}));
  const std::size_t row_entries = std::bit_ceil(std::max<std::size_t>(n_, 1));
  const auto row_shift =
      static_cast<unsigned>(std::countr_zero(std::uint64_t{row_entries}));
  const std::size_t total_bits = (n_ * row_entries) << entry_shift;
  std::vector<std::uint64_t> words((total_bits + 63) / 64, 0);
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  const auto put = [&](std::size_t slot, std::uint64_t v) {
    const std::size_t pos = slot << entry_shift;
    words[pos >> 6] |= v << (pos & 63);
  };
  for (NodeId u = 0; u < n_; ++u) {
    const NodeId self = labeling_.label_of(u);
    const auto ports = ports_.ports(u);
    bitio::BitReader r(table_bits_[u]);
    for (std::size_t dest = 0; dest < row_entries; ++dest) {
      const std::size_t slot = (std::size_t{u} << row_shift) + dest;
      // Sentinel n at the self slot and in the padding tail; every other
      // slot is the resolved next-hop node id.
      if (dest >= n_ || dest == self) {
        put(slot, std::uint64_t{n_} & mask);
        continue;
      }
      r.seek(dest * width_[u]);
      const auto port = static_cast<graph::PortId>(r.read_bits(width_[u]));
      put(slot, ports[port]);
    }
  }
  model::note_fastpath_compiled("full_table");
  return std::make_shared<FullTableFastPath>(n_, std::move(words), row_shift,
                                             entry_shift);
}

model::SpaceReport FullTableScheme::space() const {
  return model::SpaceReport::of(table_bits_);
}

}  // namespace optrt::schemes
