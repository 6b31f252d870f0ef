// Theorem 2: shortest-path routing in model II∧γ with O(1)-bit local
// routing functions, by moving the routing information into the labels.
//
// Node u's label is (u, f(u)) where f(u) are the least neighbours of u that
// dominate u's non-neighbours (≤ (c+3) log n of them by Lemma 3), encoded
// in (1 + (c+3)log n)·log n bits. To route u → v:
//   · v adjacent to u (free knowledge under II): one step;
//   · else some neighbour z of u appears in f(v) (Lemma 3 applied at v,
//     since u is not adjacent to v): route to the least such z, which is
//     adjacent to v.
// The local routing function is the constant algorithm above — 0 stored
// bits per node; the γ accounting charges the labels.
#pragma once

#include <vector>

#include "graph/labeling.hpp"
#include "model/scheme.hpp"

namespace optrt::schemes {

using graph::NodeId;

class NeighborLabelScheme final : public model::RoutingScheme {
 public:
  /// Throws SchemeInapplicable if some node's least-neighbour cover is
  /// incomplete (a node farther than 2 away).
  explicit NeighborLabelScheme(const graph::Graph& g);

  [[nodiscard]] std::string name() const override { return "neighbor-label"; }
  [[nodiscard]] model::Model routing_model() const override {
    return model::kIIgamma;
  }
  [[nodiscard]] std::size_t node_count() const override { return n_; }
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label,
                                model::MessageHeader& header) const override;
  [[nodiscard]] model::SpaceReport space() const override;

  /// The charged bit-label of a node: [id | count | center ids] at fixed
  /// ⌈log₂ n⌉-bit fields.
  [[nodiscard]] const bitio::BitVector& bit_label(NodeId u) const {
    return labels_.label_of_node[u];
  }

 private:
  /// Parses a bit label into (id, cover list).
  struct ParsedLabel {
    NodeId id = 0;
    std::vector<NodeId> cover;
  };
  [[nodiscard]] ParsedLabel parse_label(NodeId node) const;

  std::size_t n_;
  unsigned id_width_;
  graph::ArbitraryLabels labels_;
  graph::Graph g_;  // free neighbour knowledge under model II
};

}  // namespace optrt::schemes
