// The node table layout LandmarkScheme and TzScheme share, and its one
// validating decode into the compiled form both fast paths read.
//
// Node w stores, at port width ⌈log₂ d(w)⌉ (ports in sorted neighbour
// order):
//   · one port per landmark, in landmark-index order (a landmark's own
//     entry is unused and stored as 0), then
//   · a ⌈log₂(n+1)⌉-bit entry count and that many (id, port) pairs, ids at
//     ⌈log₂ n⌉ bits in strictly increasing order: the landmark scheme's
//     vicinity or the TZ cluster of w.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bitio/bit_vector.hpp"
#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "graph/ports.hpp"
#include "model/fastpath.hpp"

namespace optrt::schemes {

/// The compiled node tables plus the label data both schemes route by.
struct LandmarkTables {
  /// Per node: listed destination id → stored port (rank-indexed).
  std::vector<model::PackedSparseArray> listed;
  /// Per node: landmark index → stored port.
  std::vector<model::PackedValueArray> landmark_port;
  /// Label table: v → l(v), v's nearest landmark (part of v's label).
  std::vector<graph::NodeId> landmark_of;
  /// Landmark id → its index in the sorted landmark list.
  std::vector<std::uint32_t> landmark_index;
  /// Sorted adjacency: neighbor_at(u, p) is the node on u's port p.
  graph::CsrGraph csr;

  /// The stored port of `u` toward `v`'s landmark.
  [[nodiscard]] std::uint64_t port_toward_landmark(graph::NodeId u,
                                                   graph::NodeId v) const {
    return landmark_port[u].at(landmark_index[landmark_of[v]]);
  }
  [[nodiscard]] graph::NodeId hop(graph::NodeId u, std::uint64_t port) const {
    return csr.neighbor_at(u, static_cast<graph::PortId>(port));
  }
};

/// Encodes node w's table: shortest-path ports toward every landmark,
/// then every v ≠ w with d(w, v) < list_below[v]. `ports` must be the
/// sorted assignment.
[[nodiscard]] bitio::BitVector build_landmark_node_bits(
    const graph::Graph& g, const graph::DistanceMatrix& dist,
    const graph::PortAssignment& ports,
    const std::vector<graph::NodeId>& landmarks,
    const std::vector<std::uint32_t>& list_below, graph::NodeId w);

/// Decodes every node's bits — checking stored ports below the degree, at
/// most n entries, ids below n and strictly increasing, and exact
/// consumption — and compiles them. Throws std::out_of_range on a
/// truncated table and std::invalid_argument otherwise; messages name
/// `scheme` and call the id list `list`.
[[nodiscard]] LandmarkTables compile_landmark_tables(
    const graph::Graph& g, const std::vector<graph::NodeId>& landmarks,
    std::vector<graph::NodeId> landmark_of,
    const std::vector<bitio::BitVector>& bits, const std::string& scheme,
    const std::string& list);

/// Reference decodes of one node's bits, one BitReader pass per call:
/// the stored port toward landmark index `index`, and the stored port of
/// `v` when v is listed.
[[nodiscard]] graph::PortId read_landmark_port(const bitio::BitVector& bits,
                                               std::size_t degree,
                                               std::size_t index);
[[nodiscard]] std::optional<graph::PortId> read_listed_port(
    const bitio::BitVector& bits, std::size_t n, std::size_t degree,
    std::size_t landmark_count, graph::NodeId v);

}  // namespace optrt::schemes
