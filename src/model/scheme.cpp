#include "model/scheme.hpp"

#include <bit>

namespace optrt::model {

SpaceReport SpaceReport::of(std::span<const bitio::BitVector> bits,
                            std::size_t label_bits) {
  SpaceReport report;
  report.function_bits.reserve(bits.size());
  for (const auto& b : bits) report.function_bits.push_back(b.size());
  report.label_bits = label_bits;
  return report;
}

NodeId RoutingScheme::reference_next_hop(const graph::Graph&, NodeId u,
                                         NodeId dest_label) const {
  MessageHeader header;
  return next_hop(u, dest_label, header);
}

unsigned MessageHeader::bits_in_flight() const noexcept {
  // Two phase bits plus the probe index at its natural width.
  const unsigned index_bits =
      probe_index == 0 ? 0 : static_cast<unsigned>(std::bit_width(probe_index));
  return 2 + index_bits;
}

}  // namespace optrt::model
