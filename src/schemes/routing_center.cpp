#include "schemes/routing_center.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "bitio/rank_select.hpp"
#include "graph/cover.hpp"
#include "model/fastpath.hpp"
#include "schemes/errors.hpp"

namespace optrt::schemes {

class RoutingCenterFastPath final : public model::FastPath {
 public:
  RoutingCenterFastPath(std::size_t n, model::AdjacencyBits adjacency,
                        bitio::RankSelect in_b,
                        std::vector<model::PackedSparseArray> center_tables,
                        std::vector<NodeId> my_center)
      : n_(n),
        adjacency_(std::move(adjacency)),
        in_b_(std::move(in_b)),
        center_tables_(std::move(center_tables)),
        my_center_(std::move(my_center)) {}

  [[nodiscard]] std::string name() const override { return "routing-center"; }
  [[nodiscard]] std::size_t node_count() const override { return n_; }

  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label) const override {
    if (dest_label == u) {
      throw std::invalid_argument("RoutingCenterScheme: routing to self");
    }
    if (adjacency_.has_edge(u, dest_label)) return dest_label;
    if (in_b_.get(u)) {
      // Dense table slot of this center = its rank within B.
      const auto& table = center_tables_[in_b_.rank1(u)];
      if (table.contains(dest_label)) {
        return static_cast<NodeId>(table.value(dest_label));
      }
      return dest_label;
    }
    return my_center_[u];
  }

 private:
  std::size_t n_;
  model::AdjacencyBits adjacency_;
  bitio::RankSelect in_b_;
  std::vector<model::PackedSparseArray> center_tables_;
  std::vector<NodeId> my_center_;  // valid when not in B
};

namespace {

unsigned id_width_of(std::size_t n) {
  return bitio::ceil_log2(std::max<std::size_t>(n, 2));
}

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
    w.write_bits(*it, id_width_of(n));
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
  bitio::BitVector in_b(n_);
  for (std::size_t i = 0; i < center_ids_.size(); ++i) {
    const NodeId b = center_ids_[i];
    if (b >= n_) {
      throw std::invalid_argument("RoutingCenterScheme: bad center id");
    }
    // The compiled form finds a center's table by its rank in B.
    if (i > 0 && b <= center_ids_[i - 1]) {
      throw std::invalid_argument(
          "RoutingCenterScheme: centers not strictly increasing");
    }
    in_b.set(b, true);
  }
  const unsigned id_width = id_width_of(n_);
  std::vector<model::PackedSparseArray> tables;
  tables.reserve(center_ids_.size());
  std::vector<NodeId> my_center(n_, static_cast<NodeId>(-1));
  for (NodeId v = 0; v < n_; ++v) {
    if (in_b.get(v)) {
      const auto nbrs = g.neighbors(v);
      tables.push_back(compile_compact_node(
          function_bits_[v], n_, v, CompactNodeOptions{},
          std::vector<NodeId>(nbrs.begin(), nbrs.end())));
      continue;
    }
    bitio::BitReader r(function_bits_[v]);
    my_center[v] = static_cast<NodeId>(r.read_bits(id_width));
    if (my_center[v] >= n_ || !in_b.get(my_center[v])) {
      throw std::invalid_argument("RoutingCenterScheme: bad stored center");
    }
    if (!g.has_edge(v, my_center[v])) {
      throw std::invalid_argument(
          "RoutingCenterScheme: stored center is not a neighbour");
    }
    if (!r.exhausted()) {
      throw std::invalid_argument(
          "RoutingCenterScheme: trailing bits in a node table");
    }
  }
  fast_ = std::make_shared<RoutingCenterFastPath>(
      n_, model::AdjacencyBits(g), bitio::RankSelect(std::move(in_b)),
      std::move(tables), std::move(my_center));
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
    const auto nbrs = g.neighbors(u);
    return decode_compact_node(function_bits_[u], n_, u, CompactNodeOptions{},
                               {nbrs.begin(), nbrs.end()})
        .next_of[dest_label];
  }
  bitio::BitReader r(function_bits_[u]);
  return static_cast<NodeId>(r.read_bits(id_width_of(n_)));
}

std::shared_ptr<const model::FastPath> RoutingCenterScheme::compile_fast()
    const {
  return fast_;
}

model::SpaceReport RoutingCenterScheme::space() const {
  return model::SpaceReport::of(function_bits_);
}

}  // namespace optrt::schemes
