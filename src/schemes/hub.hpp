// Theorem 4: routing with stretch ≤ 2 in model II using n·loglog n + 6n
// bits total.
//
// One hub stores a full Theorem-1 compact table (≤ 6n bits). Its neighbours
// route unknown destinations straight to the hub (O(1) bits — the hub's
// label is recognisable among their neighbours under II). Every node at
// distance 2 stores, in ⌈log₂((c+3)log n)⌉ = loglog n + O(1) bits, the rank
// (within its sorted neighbour list) of a neighbour adjacent to the hub —
// such a rank below (c+3) log n exists by Lemma 3. A route v → w is direct,
// or v → … → hub in ≤ 2 steps followed by a shortest hub → … → w in ≤ 2:
// at most 4 edges against a shortest path of 2.
#pragma once

#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "model/scheme.hpp"
#include "schemes/compact_node.hpp"

namespace optrt::schemes {

class HubFastPath;

class HubScheme final : public model::RoutingScheme {
 public:
  /// `rank_width_override`: width in bits of the stored neighbour rank at
  /// distance-2 nodes; 0 derives ⌈log₂⌈6·log₂ n⌉⌉ from n alone (part of the
  /// strategy, not charged per graph). Throws SchemeInapplicable when some
  /// node's connecting rank does not fit.
  explicit HubScheme(const graph::Graph& g, NodeId hub = 0,
                     unsigned rank_width_override = 0);

  /// Reconstructs from serialized per-node function bits (the
  /// deserialization path; see schemes/serialization.hpp). Every node's
  /// bits are consumed exactly: the hub's compact table, an empty string
  /// at the hub's neighbours, and one rank_width-bit rank elsewhere.
  HubScheme(const graph::Graph& g, NodeId hub, unsigned rank_width,
            std::vector<bitio::BitVector> node_bits);

  [[nodiscard]] std::string name() const override { return "hub"; }
  [[nodiscard]] model::Model routing_model() const override {
    return model::kIIalpha;
  }
  [[nodiscard]] std::size_t node_count() const override { return n_; }
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label,
                                model::MessageHeader& header) const override;
  [[nodiscard]] NodeId reference_next_hop(const graph::Graph& g, NodeId u,
                                          NodeId dest_label) const override;
  [[nodiscard]] model::SpaceReport space() const override;
  /// Compiled form, built in the constructor: adjacency bit-matrix + the
  /// hub's rank-indexed sparse table + flat toward-hub hops.
  [[nodiscard]] std::shared_ptr<const model::FastPath> compile_fast()
      const override;

  [[nodiscard]] NodeId hub() const { return hub_; }
  [[nodiscard]] unsigned rank_width() const { return rank_width_; }
  [[nodiscard]] const bitio::BitVector& function_bits(NodeId u) const {
    return function_bits_[u];
  }

 private:
  /// The validating decode of function_bits_ into fast_, shared by both
  /// constructors.
  void compile(const graph::Graph& g);

  std::size_t n_;
  NodeId hub_;
  unsigned rank_width_;
  std::vector<bitio::BitVector> function_bits_;
  std::shared_ptr<const HubFastPath> fast_;
};

}  // namespace optrt::schemes
