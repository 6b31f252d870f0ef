// Interval routing on a BFS spanning tree — the classic compact-routing
// baseline the paper's related work discusses (Flammini–van Leeuwen–
// Marchetti-Spaccamela [1], Kranakis et al. [6]).
//
// Model IB∧β: nodes are relabelled by DFS preorder of a spanning tree so
// that every subtree is a contiguous interval; each node stores, per tree
// port, the interval of labels routed over it (2⌈log n⌉ bits per tree
// edge, O(n log n) total). Routes follow tree paths: always correct on
// connected graphs, with stretch equal to the tree stretch — the cheap,
// high-stretch end of the trade-off spectrum.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "graph/labeling.hpp"
#include "model/scheme.hpp"

namespace optrt::schemes {

using graph::NodeId;

class IntervalRoutingScheme final : public model::RoutingScheme {
 public:
  /// Builds a BFS spanning tree rooted at `root` and DFS-relabels it.
  /// Throws SchemeInapplicable on disconnected graphs.
  explicit IntervalRoutingScheme(const graph::Graph& g, NodeId root = 0);

  [[nodiscard]] std::string name() const override { return "interval-tree"; }
  [[nodiscard]] model::Model routing_model() const override {
    return model::kIBbeta;
  }
  [[nodiscard]] std::size_t node_count() const override { return n_; }
  [[nodiscard]] NodeId label_of(NodeId node) const override {
    return labeling_.label_of(node);
  }
  [[nodiscard]] NodeId node_of_label(NodeId label) const override {
    return labeling_.node_of(label);
  }
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label,
                                model::MessageHeader& header) const override;
  [[nodiscard]] model::SpaceReport space() const override;

 private:
  std::size_t n_;
  graph::Labeling labeling_;
  // Per node: parent id (self at the root), child count, then one
  // (child id, lo, hi) triple per child — next_hop decodes it per call.
  std::vector<bitio::BitVector> function_bits_;
};

}  // namespace optrt::schemes
