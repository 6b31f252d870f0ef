// Theorem 5: routing with stretch ≤ 2(c+3) log n in model II using O(1)
// bits per node — O(n) bits for the whole scheme.
//
// The constant local routing function: deliver directly if the destination
// is a neighbour; otherwise probe the least neighbours in order — send the
// message to v₁; v₁ forwards it if the destination is its neighbour, else
// bounces it back over the arrival link; try v₂, and so on. By Lemma 3 a
// probe succeeds within the first (c+3) log n least neighbours, so a
// distance-2 destination costs at most 2(c+3) log n edge traversals.
//
// The probe state (phase + index) travels in the message header; the paper
// counts edge traversals, and SpaceReport shows 0 stored bits per node.
#pragma once

#include "graph/graph.hpp"
#include "model/scheme.hpp"

namespace optrt::schemes {

using graph::NodeId;

class SequentialSearchScheme final : public model::RoutingScheme {
 public:
  explicit SequentialSearchScheme(const graph::Graph& g);

  [[nodiscard]] std::string name() const override {
    return "sequential-search";
  }
  [[nodiscard]] model::Model routing_model() const override {
    return model::kIIalpha;
  }
  [[nodiscard]] std::size_t node_count() const override {
    return g_->node_count();
  }
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label,
                                model::MessageHeader& header) const override;
  [[nodiscard]] model::SpaceReport space() const override;
  [[nodiscard]] std::vector<NodeId> port_enumeration(NodeId u) const override;
  /// Compiled form of the first (at-source) decision: adjacency bit test,
  /// else the least neighbour from a CSR slice.
  [[nodiscard]] std::shared_ptr<const model::FastPath> compile_fast()
      const override;

  // Header phases.
  static constexpr std::uint32_t kAtSource = 0;
  static constexpr std::uint32_t kProbing = 1;
  static constexpr std::uint32_t kReturning = 2;

 private:
  const graph::Graph* g_;  // free neighbour knowledge under model II
};

}  // namespace optrt::schemes
