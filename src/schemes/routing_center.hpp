// Theorem 3: routing with stretch ≤ 1.5 in model II using (6c+20)·n log n
// bits total.
//
// Pick a hub u* and let B = {u*} ∪ (least-neighbour cover of u*). By
// Lemmas 2–3 every node is adjacent to some node of B. Nodes of B store the
// full Theorem-1 compact table (≤ 6n bits each, |B| = O(log n) of them);
// every other node stores just the label of one adjacent center
// (⌈log n⌉ bits). A route v → w is either direct (w adjacent) or
// v → center → … → w in ≤ 3 steps, against a shortest path of 2 —
// stretch ≤ 1.5, the only possible value strictly between 1 and 2 on
// diameter-2 graphs.
#pragma once

#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "model/scheme.hpp"
#include "schemes/compact_node.hpp"

namespace optrt::schemes {

class RoutingCenterFastPath;

class RoutingCenterScheme final : public model::RoutingScheme {
 public:
  /// Throws SchemeInapplicable if the hub's cover is incomplete or a center
  /// node lacks the Theorem-1 structure.
  explicit RoutingCenterScheme(const graph::Graph& g, NodeId hub = 0);

  /// Reconstructs from serialized state (deserialization path; see
  /// schemes/serialization.hpp): the center set, strictly increasing, plus
  /// per-node bits — a compact table at every center, elsewhere exactly
  /// the id of one adjacent center. Throws std::invalid_argument otherwise.
  RoutingCenterScheme(const graph::Graph& g, std::vector<NodeId> center_ids,
                      std::vector<bitio::BitVector> node_bits);

  [[nodiscard]] std::string name() const override { return "routing-center"; }
  [[nodiscard]] model::Model routing_model() const override {
    return model::kIIalpha;
  }
  [[nodiscard]] std::size_t node_count() const override { return n_; }
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label,
                                model::MessageHeader& header) const override;
  [[nodiscard]] NodeId reference_next_hop(const graph::Graph& g, NodeId u,
                                          NodeId dest_label) const override;
  [[nodiscard]] model::SpaceReport space() const override;
  /// Compiled form, built in the constructor: adjacency bit-matrix,
  /// rank-indexed sparse tables at the centers, flat center hops
  /// elsewhere.
  [[nodiscard]] std::shared_ptr<const model::FastPath> compile_fast()
      const override;

  [[nodiscard]] const std::vector<NodeId>& centers() const { return center_ids_; }
  [[nodiscard]] const bitio::BitVector& function_bits(NodeId u) const {
    return function_bits_[u];
  }

 private:
  /// The validating decode of function_bits_ into fast_, shared by both
  /// constructors.
  void compile(const graph::Graph& g);

  std::size_t n_;
  std::vector<NodeId> center_ids_;  ///< B, strictly increasing
  // Per node: either a compact table (centers) or a stored center label.
  std::vector<bitio::BitVector> function_bits_;
  std::shared_ptr<const RoutingCenterFastPath> fast_;
};

}  // namespace optrt::schemes
