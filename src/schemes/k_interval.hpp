// k-interval routing on arbitrary connected graphs — the object of study
// of the paper's reference [1] (Flammini, van Leeuwen, Marchetti-
// Spaccamela: "The complexity of interval routing on random graphs").
//
// Every port of a node is annotated with a set of cyclic label intervals;
// a destination is routed over the (unique) port whose intervals contain
// its label. Shortest-path assignment: each destination maps to the least
// shortest-path successor. The *compactness* (maximum number of intervals
// on any port) measures how well the labelling linearizes the routing
// regions: 1 on chains and rings, small on grids and hypercubes — and
// Θ(n) on random graphs, which is reference [1]'s point and dovetails with
// this paper's Θ(n²)-bits-for-random-graphs theme: interval compression
// buys nothing exactly where Theorem 6 says nothing can be compressed.
#pragma once

#include <vector>

#include "bitio/bit_vector.hpp"
#include "graph/graph.hpp"
#include "graph/ports.hpp"
#include "model/scheme.hpp"

namespace optrt::schemes {

using graph::NodeId;

class KIntervalScheme final : public model::RoutingScheme {
 public:
  /// Builds the shortest-path k-interval scheme under the identity
  /// labelling. Throws SchemeInapplicable on disconnected graphs.
  explicit KIntervalScheme(const graph::Graph& g);

  [[nodiscard]] std::string name() const override { return "k-interval"; }
  [[nodiscard]] model::Model routing_model() const override {
    return model::kIBalpha;
  }
  [[nodiscard]] std::size_t node_count() const override { return n_; }
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label,
                                model::MessageHeader& header) const override;
  [[nodiscard]] model::SpaceReport space() const override;

  /// Compactness: max number of cyclic intervals on any single port.
  [[nodiscard]] std::size_t compactness() const { return compactness_; }
  /// Total number of intervals across all nodes and ports.
  [[nodiscard]] std::size_t total_intervals() const { return total_intervals_; }
  [[nodiscard]] const bitio::BitVector& function_bits(NodeId u) const {
    return function_bits_[u];
  }

 private:
  struct Interval {
    NodeId lo;  // inclusive; cyclic when lo > hi
    NodeId hi;  // inclusive
  };
  [[nodiscard]] static bool contains(const Interval& iv, NodeId label,
                                     std::size_t n) noexcept;

  std::size_t n_;
  graph::PortAssignment ports_;
  std::size_t compactness_ = 0;
  std::size_t total_intervals_ = 0;
  // Per node, per port: a prime-coded interval count, then (lo, hi)
  // label pairs — next_hop decodes it per call.
  std::vector<bitio::BitVector> function_bits_;
};

}  // namespace optrt::schemes
