// Port assignments (§1): the edges incident to a node v of degree d(v) are
// connected to ports labelled 0..d(v)−1.
//
// Model IA fixes the assignment (possibly adversarially — Theorem 8's lower
// bound sets it to a random permutation of the neighbours); model IB lets
// the routing strategy re-assign ports locally, and the canonical free
// choice is "the i-th least neighbour sits on port i" (proof of Theorem 1).
// That sorted order is the Graph's own CSR order, so a PortAssignment
// shares the Graph's adjacency block and stores only what differs from
// it: nothing for the sorted order, two flat arc-indexed arrays otherwise.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace optrt::graph {

using PortId = std::uint32_t;

/// A port assignment for every node of a graph. It holds the Graph, so
/// the sorted (model IB) assignment stores nothing of its own: port p of u
/// is the graph's arc arc_begin(u) + p. Any other assignment also stores
/// two arrays indexed by arc id: port → neighbour and rank → port.
class PortAssignment {
 public:
  /// The canonical (model IB) assignment: port i ↦ i-th least neighbour.
  [[nodiscard]] static PortAssignment sorted(const Graph& g);

  /// A uniformly random permutation per node — the generic model IA case
  /// and the Theorem 8 adversary.
  [[nodiscard]] static PortAssignment random(const Graph& g, Rng& rng);

  /// Builds from explicit port → neighbour permutations (one vector per
  /// node, a permutation of its neighbour list). Throws if any vector is
  /// not a permutation of the node's neighbours.
  [[nodiscard]] static PortAssignment from_port_maps(
      const Graph& g, std::vector<std::vector<NodeId>> port_to_neighbor);

  /// Neighbour reached over port `p` of node `u`.
  [[nodiscard]] NodeId neighbor_at(NodeId u, PortId p) const noexcept {
    return ports(u)[p];
  }

  /// Port of node `u` leading to neighbour `v`.
  /// Throws std::invalid_argument if {u, v} is not an edge.
  [[nodiscard]] PortId port_of(NodeId u, NodeId v) const;

  [[nodiscard]] std::size_t degree(NodeId u) const noexcept {
    return g_.degree(u);
  }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return g_.node_count();
  }

  /// The full port → neighbour permutation at `u`.
  [[nodiscard]] std::span<const NodeId> ports(NodeId u) const noexcept {
    if (port_neighbor_.empty()) return g_.neighbors(u);
    return {port_neighbor_.data() + g_.arc_begin(u), g_.degree(u)};
  }

 private:
  explicit PortAssignment(Graph g) : g_(std::move(g)) {}

  Graph g_;
  // Empty for the sorted order. Otherwise port_neighbor_[arc_begin(u) + p]
  // is the neighbour on u's port p, and rank_port_[arc_begin(u) + i] the
  // port of u's i-th least neighbour.
  std::vector<NodeId> port_neighbor_;
  std::vector<PortId> rank_port_;
};

}  // namespace optrt::graph
