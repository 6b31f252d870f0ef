#include "schemes/neighbor_label.hpp"

#include <algorithm>
#include <stdexcept>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "graph/cover.hpp"
#include "schemes/errors.hpp"

namespace optrt::schemes {

NeighborLabelScheme::NeighborLabelScheme(const graph::Graph& g)
    : n_(g.node_count()),
      id_width_(bitio::id_width(n_)),
      g_(g) {
  labels_.label_of_node.resize(n_);
  for (NodeId u = 0; u < n_; ++u) {
    const graph::NeighborCover cover = graph::least_neighbor_cover(g, u);
    if (!cover.complete) {
      throw SchemeInapplicable(
          "neighbor-label: node " + std::to_string(u) +
          " has a non-neighbour at distance > 2");
    }
    bitio::BitWriter w;
    w.write_bits(u, id_width_);
    w.write_bits(cover.centers.size(), id_width_);
    for (NodeId c : cover.centers) w.write_bits(c, id_width_);
    labels_.label_of_node[u] = w.take();
  }
}

NeighborLabelScheme::ParsedLabel NeighborLabelScheme::parse_label(
    NodeId node) const {
  bitio::BitReader r(labels_.label_of_node[node]);
  ParsedLabel parsed;
  parsed.id = static_cast<NodeId>(r.read_bits(id_width_));
  const auto count = static_cast<std::size_t>(r.read_bits(id_width_));
  parsed.cover.resize(count);
  for (auto& c : parsed.cover) c = static_cast<NodeId>(r.read_bits(id_width_));
  return parsed;
}

NodeId NeighborLabelScheme::next_hop(NodeId u, NodeId dest_label,
                                     model::MessageHeader&) const {
  // The destination is handed to us as its complex label; parse it.
  const ParsedLabel dest = parse_label(dest_label);
  if (dest.id == u) {
    throw std::invalid_argument("NeighborLabelScheme: routing to self");
  }
  // Free under II: u knows its neighbours (and their labels).
  if (g_.has_edge(u, dest.id)) return dest.id;
  // Lemma 3 at the destination: some neighbour of u is in f(dest).
  NodeId best = static_cast<NodeId>(-1);
  for (NodeId z : g_.neighbors(u)) {
    if (std::find(dest.cover.begin(), dest.cover.end(), z) !=
        dest.cover.end()) {
      best = z;
      break;  // neighbours are sorted: first hit is the least
    }
  }
  if (best == static_cast<NodeId>(-1)) {
    throw std::invalid_argument(
        "NeighborLabelScheme: destination cover misses all neighbours");
  }
  return best;
}

model::SpaceReport NeighborLabelScheme::space() const {
  model::SpaceReport report;
  // The local routing function is constant: zero stored bits per node.
  report.function_bits.assign(n_, 0);
  report.label_bits = labels_.total_bits();
  return report;
}

}  // namespace optrt::schemes
