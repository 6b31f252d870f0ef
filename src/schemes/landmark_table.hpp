// The cluster layer behind LandmarkScheme, TzScheme and HierarchicalScheme,
// the node table layout the first two share, its one validating decode into
// the compiled form both fast paths read, and the one nearest-landmark
// search both decoders derive their labels from.
//
// All three schemes store ports toward a pivot set plus one cluster per
// node, C(w) = {v : d(w, v) < r(v)}:
//   · TZ: r(v) = d(v, A);
//   · landmark: r(v) = d(v, A) + 1;
//   · hierarchical: r(v) = d(v, A₁) + 1.
// Each r meets the closure precondition r(v) ≤ r(u) + d(u, v). Then every
// node u on a shortest w–v path to a member v is itself a member:
// d(w, u) = d(w, v) − d(u, v) < r(v) − d(u, v) ≤ r(u). So a BFS from w that
// expands only members (ClusterBfs) finds each member at its exact distance
// with its least first hop. Ports toward the pivots come from
// graph::least_ports, one bit-parallel sweep per BFS level for up to 64
// pivots at a time, with no distance row kept per pivot. No builder needs
// an all-pairs matrix.
//
// Node w of LandmarkScheme and TzScheme stores, at port width ⌈log₂ d(w)⌉
// (ports in sorted neighbour order):
//   · one port per landmark, in landmark-index order (a landmark's own
//     entry is unused and stored as 0), then
//   · a ⌈log₂(n+1)⌉-bit entry count and that many (id, port) pairs, ids at
//     ⌈log₂ n⌉ bits in strictly increasing order: the landmark scheme's
//     vicinity or the TZ cluster of w.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bitio/bit_vector.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "graph/ports.hpp"
#include "model/fastpath.hpp"

namespace optrt::schemes {

/// The compiled node tables plus the label data both schemes route by.
struct LandmarkTables {
  explicit LandmarkTables(graph::Graph g) : graph(std::move(g)) {}

  /// The graph: neighbor_at(u, p) is the node on u's sorted port p.
  graph::Graph graph;
  /// Per node: listed destination id → stored port (rank-indexed).
  std::vector<model::PackedSparseArray> listed;
  /// Per node: landmark index → stored port.
  std::vector<model::PackedValueArray> landmark_port;
  /// Label table: v → l(v), v's nearest landmark (part of v's label).
  std::vector<graph::NodeId> landmark_of;
  /// Landmark id → its index in the sorted landmark list.
  std::vector<std::uint32_t> landmark_index;

  /// The stored port of `u` toward `v`'s landmark.
  [[nodiscard]] std::uint64_t port_toward_landmark(graph::NodeId u,
                                                   graph::NodeId v) const {
    return landmark_port[u].at(landmark_index[landmark_of[v]]);
  }
  [[nodiscard]] graph::NodeId hop(graph::NodeId u, std::uint64_t port) const {
    return graph.neighbor_at(u, static_cast<graph::PortId>(port));
  }
};

/// Every node's nearest landmark, from one multi-source BFS over the
/// landmark list.
struct NearestLandmarks {
  /// d(v, A); graph::kUnreachable when no landmark reaches v.
  std::vector<std::uint32_t> distance;
  /// The least stored landmark index at distance[v] (0 when unreachable).
  std::vector<std::uint32_t> index;
  /// At landmarks[index[v]], the port (sorted-neighbour rank) of the least
  /// first hop toward v; 0 at the landmarks and at unreachable nodes.
  std::vector<graph::PortId> exit_port;
};

/// The BFS carries the lexicographic least (landmark index, first-hop
/// rank) down its shortest-path DAG. That is exact: every node on a
/// shortest path from v's least nearest landmark l to v has l as its own
/// least nearest landmark, so v's pair is the least over its BFS parents.
/// A repeated landmark id keeps its first index. O(n + m). Precondition:
/// `landmarks` is nonempty and every id is below n (both decoders check
/// this first).
[[nodiscard]] NearestLandmarks nearest_landmarks(
    const graph::Graph& g, const std::vector<graph::NodeId>& landmarks);

/// One node-table entry: a destination and the port toward it (the rank of
/// the least shortest-path successor in the node's sorted neighbours).
struct TableEntry {
  graph::NodeId id;
  graph::PortId port;

  friend bool operator==(const TableEntry&, const TableEntry&) = default;
};

/// The bounded BFS over clusters C(w) = {v : d(w, v) < r(v)}. Exact when r
/// meets the closure precondition above (r(v) = graph::kUnreachable admits
/// every node reachable from w). A member u is expanded only while another
/// member could lie one step further out, d(w, u) + 1 < max r, and the
/// visit stamps persist between calls, so a call costs what it visits.
class ClusterBfs {
 public:
  /// `g` must outlive this object; `r` holds one radius per node.
  ClusterBfs(const graph::Graph& g, std::vector<std::uint32_t> r);

  /// C(w) minus w in BFS order, each member with the rank of w's least
  /// first hop toward it. Valid until the next call.
  const std::vector<TableEntry>& operator()(graph::NodeId w);

 private:
  const graph::Graph& g_;
  std::vector<std::uint32_t> r_;
  std::uint32_t max_r_ = 0;
  std::uint64_t epoch_ = 0;           // one per call: stamps never wrap
  std::vector<std::uint64_t> stamp_;  // the call that last reached v
  std::vector<std::uint32_t> dist_;   // d(w, v) for the members
  std::vector<TableEntry> members_;
};

/// Encodes node w's table: `landmark_ports` in landmark-index order, then
/// `listed`, which must be in strictly increasing id order. The one encoder
/// behind LandmarkScheme, TzScheme and the CONGEST TZ construction, so
/// tables from all three are byte-identical.
[[nodiscard]] bitio::BitVector build_landmark_node_bits(
    const graph::Graph& g, graph::NodeId w,
    std::span<const graph::PortId> landmark_ports,
    std::span<const TableEntry> listed);

/// Every node's table: ports toward each landmark from graph::least_ports,
/// and the cluster C(w) under radii `r` from ClusterBfs. `g` must be
/// connected and `r` must meet the closure precondition. Runs inside a
/// `schemes.landmark_tables.build` span.
[[nodiscard]] std::vector<bitio::BitVector> build_landmark_tables(
    const graph::Graph& g, const std::vector<graph::NodeId>& landmarks,
    const std::vector<std::uint32_t>& r);

/// Decodes every node's bits — checking stored ports below the degree, at
/// most n entries, ids below n and strictly increasing, and exact
/// consumption — and compiles them, with l(v) = landmarks[nearest.index[v]]
/// as the label table. Throws std::out_of_range on a truncated table and
/// std::invalid_argument otherwise; messages name `scheme` and call the id
/// list `list`.
[[nodiscard]] LandmarkTables compile_landmark_tables(
    const graph::Graph& g, const std::vector<graph::NodeId>& landmarks,
    const NearestLandmarks& nearest,
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
