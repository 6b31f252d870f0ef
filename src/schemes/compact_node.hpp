// The per-node compact shortest-path table of Theorem 1, shared by the
// CompactDiam2 scheme (every node), the RoutingCenter scheme (center nodes)
// and the Hub scheme (the hub).
//
// For a node u of a diameter-2 graph whose non-neighbours A₀ are dominated
// by an ordered list of centers v₁, …, v_m (neighbours of u):
//
//   table 1 — for each w ∈ A₀ in increasing order, the unary code of the
//             index of w's first coverer v_t if t ≤ l, else a bare 0 bit
//             (meaning "look in table 2");
//   table 2 — for each deferred w in order, the coverer index at fixed
//             width ⌈log₂ m⌉.
//
// l is the paper's cut: the least prefix of centers after which at most
// n/loglog n (option: n/log n, the refinement yielding ≤ 3n bits)
// non-neighbours remain. Claim 1's geometric decay keeps table 1 ≤ 4n bits.
//
// Under model IB the node does not know its neighbours; the encoding is
// prefixed by u's interconnection vector (n−1 bits) and ports are the
// canonical sorted assignment, exactly as in the proof of Theorem 1.
#pragma once

#include <cstdint>
#include <vector>

#include "bitio/bit_vector.hpp"
#include "graph/cover.hpp"
#include "graph/graph.hpp"
#include "model/fastpath.hpp"

namespace optrt::schemes {

using graph::NodeId;

struct CompactNodeOptions {
  /// Use the greedy max-coverage center order instead of the paper's
  /// least-neighbour order (ablation; requires storing center ranks).
  bool greedy_cover = false;
  /// Cut the unary table at n/log n remaining instead of n/loglog n
  /// (the paper's refinement that brings 6n down to ≈ 3n).
  bool threshold_log = false;
  /// Prepend the interconnection vector (model IB; model II reads
  /// neighbours for free).
  bool include_adjacency = false;
};

/// Serialized compact table for one node.
struct CompactNodeBits {
  bitio::BitVector bits;
  std::size_t table1_bits = 0;  ///< size of the unary table (reporting)
  std::size_t table2_bits = 0;  ///< size of the fixed-width table
};

/// Builds the Theorem 1 table for node `u`. Throws SchemeInapplicable if
/// u's neighbours do not dominate all its non-neighbours (i.e. some node is
/// farther than 2 from u).
[[nodiscard]] CompactNodeBits build_compact_node(const graph::Graph& g,
                                                 NodeId u,
                                                 const CompactNodeOptions& opt);

/// Decoded routing view of a compact node table.
struct DecodedCompactNode {
  /// Sorted neighbour list used for decoding (from the graph under II,
  /// from the stored interconnection vector under IB).
  std::vector<NodeId> neighbors;
  /// next_of[w] = next hop toward w (w itself if a neighbour, a center
  /// otherwise), or graph::kNoCoverer-like sentinel kInvalid for w == u.
  std::vector<NodeId> next_of;

  static constexpr NodeId kInvalid = static_cast<NodeId>(-1);
};

/// Decodes a compact node table. `free_neighbors` must be the sorted
/// neighbour list when the table was built without the adjacency prefix
/// (model II); it is ignored (and may be empty) when the table embeds its
/// interconnection vector (model IB). Throws std::out_of_range on a
/// truncated or out-of-range field and std::invalid_argument when bits
/// remain after the last table entry (tables are consumed exactly).
[[nodiscard]] DecodedCompactNode decode_compact_node(
    const bitio::BitVector& bits, std::size_t n, NodeId u,
    const CompactNodeOptions& opt, std::vector<NodeId> free_neighbors);

/// Decodes (with every decode_compact_node check) and compiles one table
/// into the sparse form the compiled fast paths read: a membership
/// bit-vector of the destinations routed through a center, with O(1) rank
/// into their bit-packed centers. A destination outside the set is u
/// itself or a neighbour, which answers itself.
[[nodiscard]] model::PackedSparseArray compile_compact_node(
    const bitio::BitVector& bits, std::size_t n, NodeId u,
    const CompactNodeOptions& opt, std::vector<NodeId> free_neighbors);

}  // namespace optrt::schemes
