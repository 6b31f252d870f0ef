#include "schemes/routing_center.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "graph/cover.hpp"
#include "model/fastpath.hpp"
#include "schemes/errors.hpp"

namespace optrt::schemes {

class RoutingCenterFastPath final
    : public model::DirectBatchFastPath<RoutingCenterFastPath> {
 public:
  RoutingCenterFastPath(std::size_t n, graph::Graph g,
                        std::vector<NodeId> slot,
                        std::vector<model::PackedSparseArray> center_tables)
      : n_(n),
        g_(std::move(g)),
        slot_(std::move(slot)),
        center_tables_(std::move(center_tables)) {}

  [[nodiscard]] std::string name() const override { return "routing-center"; }
  [[nodiscard]] std::size_t node_count() const override { return n_; }

  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label) const override {
    if (dest_label == u) {
      throw std::invalid_argument("RoutingCenterScheme: routing to self");
    }
    // The hop for a destination that is not a neighbour: via u's center,
    // or from u's own table at one of the few centers.
    NodeId far = slot_[u];
    if (far >= n_) {
      far = static_cast<NodeId>(
          center_tables_[far - n_].value_or(dest_label, dest_label));
    }
    return model::select(g_.has_edge(u, dest_label), dest_label, far);
  }

 private:
  std::size_t n_;
  graph::Graph g_;  // model II's free edge test
  /// Per node: its center's label, or n + its table's index in B when the
  /// node is a center itself.
  std::vector<NodeId> slot_;
  std::vector<model::PackedSparseArray> center_tables_;
};

namespace {

/// The sorted center set B = {hub} ∪ (least-neighbour cover of the hub).
std::vector<NodeId> hub_centers(const graph::Graph& g, NodeId hub) {
  const graph::NeighborCover hub_cover = graph::least_neighbor_cover(g, hub);
  if (!hub_cover.complete) {
    throw SchemeInapplicable("routing-center: hub cover incomplete");
  }
  std::vector<NodeId> centers = hub_cover.centers;
  centers.push_back(hub);
  std::sort(centers.begin(), centers.end());
  centers.erase(std::unique(centers.begin(), centers.end()), centers.end());
  return centers;
}

/// Per node: a compact table at the centers, elsewhere the label of the
/// least adjacent center. Every node is adjacent to one: the hub's cover
/// dominates its non-neighbours and the hub's neighbours are adjacent to
/// the hub itself.
std::vector<bitio::BitVector> build_center_bits(
    const graph::Graph& g, const std::vector<NodeId>& centers) {
  const std::size_t n = g.node_count();
  const auto in_b = [&](NodeId v) {
    return std::binary_search(centers.begin(), centers.end(), v);
  };
  std::vector<bitio::BitVector> bits(n);
  for (NodeId v = 0; v < n; ++v) {
    if (in_b(v)) {
      bits[v] = build_compact_node(g, v, CompactNodeOptions{}).bits;
      continue;
    }
    const auto nbrs = g.neighbors(v);
    const auto it = std::find_if(nbrs.begin(), nbrs.end(), in_b);
    if (it == nbrs.end()) {
      throw SchemeInapplicable("routing-center: node " + std::to_string(v) +
                               " not adjacent to any center");
    }
    bitio::BitWriter w;
    w.write_bits(*it, bitio::id_width(n));
    bits[v] = w.take();
  }
  return bits;
}

}  // namespace

RoutingCenterScheme::RoutingCenterScheme(const graph::Graph& g, NodeId hub)
    : n_(g.node_count()),
      center_ids_(hub_centers(g, hub)),
      function_bits_(build_center_bits(g, center_ids_)) {
  compile(g);
}

RoutingCenterScheme::RoutingCenterScheme(const graph::Graph& g,
                                         std::vector<NodeId> center_ids,
                                         std::vector<bitio::BitVector> node_bits)
    : n_(g.node_count()),
      center_ids_(std::move(center_ids)),
      function_bits_(std::move(node_bits)) {
  compile(g);
}

void RoutingCenterScheme::compile(const graph::Graph& g) {
  if (function_bits_.size() != n_) {
    throw std::invalid_argument("RoutingCenterScheme: node count mismatch");
  }
  // A center's slot is n + its table's index in B, which the loop below
  // assigns in increasing node order, so B must be strictly increasing.
  std::vector<NodeId> slot(n_, 0);
  for (std::size_t i = 0; i < center_ids_.size(); ++i) {
    const NodeId b = center_ids_[i];
    if (b >= n_) {
      throw std::invalid_argument("RoutingCenterScheme: bad center id");
    }
    if (i > 0 && b <= center_ids_[i - 1]) {
      throw std::invalid_argument(
          "RoutingCenterScheme: centers not strictly increasing");
    }
    slot[b] = static_cast<NodeId>(n_ + i);
  }
  const auto is_center = [&](NodeId v) { return slot[v] >= n_; };
  const unsigned id_width = bitio::id_width(n_);
  std::vector<model::PackedSparseArray> tables;
  tables.reserve(center_ids_.size());
  for (NodeId v = 0; v < n_; ++v) {
    if (is_center(v)) {
      tables.push_back(compile_compact_node(function_bits_[v], n_, v,
                                            CompactNodeOptions{},
                                            g.neighbors(v)));
      continue;
    }
    bitio::BitReader r(function_bits_[v]);
    const auto center = static_cast<NodeId>(r.read_bits(id_width));
    if (center >= n_ || !is_center(center)) {
      throw std::invalid_argument("RoutingCenterScheme: bad stored center");
    }
    if (!g.has_edge(v, center)) {
      throw std::invalid_argument(
          "RoutingCenterScheme: stored center is not a neighbour");
    }
    if (!r.exhausted()) {
      throw std::invalid_argument(
          "RoutingCenterScheme: trailing bits in a node table");
    }
    slot[v] = center;
  }
  fast_ = std::make_shared<RoutingCenterFastPath>(n_, g, std::move(slot),
                                                  std::move(tables));
  model::note_fastpath_compiled("routing_center");
}

NodeId RoutingCenterScheme::next_hop(NodeId u, NodeId dest_label,
                                     model::MessageHeader&) const {
  return fast_->next_hop(u, dest_label);
}

NodeId RoutingCenterScheme::reference_next_hop(const graph::Graph& g, NodeId u,
                                               NodeId dest_label) const {
  if (dest_label == u) {
    throw std::invalid_argument("RoutingCenterScheme: routing to self");
  }
  // Model II: direct neighbours are routed without any table.
  if (g.has_edge(u, dest_label)) return dest_label;
  if (std::binary_search(center_ids_.begin(), center_ids_.end(), u)) {
    return compact_node_next_hop(function_bits_[u], n_, u,
                                 CompactNodeOptions{}, g.neighbors(u),
                                 dest_label);
  }
  bitio::BitReader r(function_bits_[u]);
  return static_cast<NodeId>(r.read_bits(bitio::id_width(n_)));
}

std::shared_ptr<const model::FastPath> RoutingCenterScheme::compile_fast()
    const {
  return fast_;
}

model::SpaceReport RoutingCenterScheme::space() const {
  return model::SpaceReport::of(function_bits_);
}

}  // namespace optrt::schemes
