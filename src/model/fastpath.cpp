#include "model/fastpath.hpp"

#include <bit>
#include <stdexcept>

#include "model/scheme.hpp"
#include "obs/metrics.hpp"

namespace optrt::model {

void FastPath::route_batch(std::span<const RoutePair> pairs,
                           std::span<graph::NodeId> out_hops) const {
  if (pairs.size() != out_hops.size()) {
    throw std::invalid_argument(
        "FastPath::route_batch: pairs/out_hops length mismatch");
  }
  batch_impl(pairs, out_hops);
  obs::counter("lookup.batches").inc();
  obs::counter("lookup.pairs").inc(pairs.size());
}

namespace {

class FallbackFastPath final : public DirectBatchFastPath<FallbackFastPath> {
 public:
  explicit FallbackFastPath(const RoutingScheme& scheme) : scheme_(&scheme) {}

  [[nodiscard]] std::string name() const override { return scheme_->name(); }
  [[nodiscard]] std::size_t node_count() const override {
    return scheme_->node_count();
  }
  [[nodiscard]] graph::NodeId next_hop(
      graph::NodeId u, graph::NodeId dest_label) const override {
    MessageHeader header;
    return scheme_->next_hop(u, dest_label, header);
  }

 private:
  const RoutingScheme* scheme_;
};

}  // namespace

std::shared_ptr<const FastPath> make_fallback_fastpath(
    const RoutingScheme& scheme) {
  note_fastpath_compiled("fallback");
  return std::make_shared<FallbackFastPath>(scheme);
}

void note_fastpath_compiled(const std::string& tag) {
  obs::counter("lookup.compiled").inc();
  obs::counter("lookup.compiled." + tag).inc();
}

namespace {

/// Words needed to pack `count` values at `width` bits, plus the slack
/// word that keeps read_packed's unconditional second load in bounds.
/// Checked before anything is allocated.
std::size_t packed_words(std::size_t count, unsigned width) {
  if (width > 57) {
    throw std::invalid_argument("PackedValueArray: width > 57 unsupported");
  }
  return (count * width + 63) / 64 + 1;
}

/// Packs `values` at `width` (<= 57) bits each into zeroed `out`,
/// LSB-first.
void pack_values(std::span<const std::uint32_t> values, unsigned width,
                 std::uint64_t* out) {
  const std::uint64_t limit = std::uint64_t{1} << width;
  std::size_t pos = 0;
  for (const std::uint32_t v : values) {
    if (v >= limit) {
      throw std::invalid_argument("PackedValueArray: value exceeds width");
    }
    const std::size_t w = pos >> 6;
    const unsigned off = static_cast<unsigned>(pos & 63);
    out[w] |= static_cast<std::uint64_t>(v) << off;
    if (off + width > 64) {
      out[w + 1] |= static_cast<std::uint64_t>(v) >> (64 - off);
    }
    pos += width;
  }
}

}  // namespace

PackedValueArray::PackedValueArray(std::span<const std::uint32_t> values,
                                   unsigned width)
    : words_(packed_words(values.size(), width), 0),
      size_(values.size()),
      width_(width) {
  pack_values(values, width, words_.data());
}

PackedSparseArray::PackedSparseArray(const bitio::BitVector& mask,
                                     std::span<const std::uint32_t> values,
                                     unsigned width)
    : size_(mask.size()), values_at_(2 * mask.words().size()), width_(width) {
  words_.assign(values_at_ + packed_words(values.size(), width), 0);
  for (std::size_t i = 0; i < mask.words().size(); ++i) {
    words_[2 * i] = mask.words()[i];
    words_[2 * i + 1] = members_;
    members_ += static_cast<std::size_t>(std::popcount(mask.words()[i]));
  }
  if (members_ != values.size()) {
    throw std::invalid_argument(
        "PackedSparseArray: values must align with mask population");
  }
  pack_values(values, width, words_.data() + values_at_);
}

}  // namespace optrt::model

// The default compiled form for schemes without a bespoke one lives here
// so scheme.cpp stays header-layout only.
namespace optrt::model {

std::shared_ptr<const FastPath> RoutingScheme::compile_fast() const {
  return make_fallback_fastpath(*this);
}

}  // namespace optrt::model
