// The standard graph encoding E(G) of Definition 2.
//
// "We enumerate the n(n−1)/2 possible edges uv in a graph on n nodes in
// standard lexicographical order without repetitions and set the i-th bit in
// the string to 1 if the i-th edge is present" — so E(G) has exactly
// n(n−1)/2 bits and every such string is a graph. The incompressibility
// codecs in src/incompressibility compress exactly this string.
#pragma once

#include <cstddef>

#include "bitio/bit_vector.hpp"
#include "graph/graph.hpp"

namespace optrt::graph {

/// Index of edge {u, v} (u != v) in the lexicographic enumeration of all
/// pairs: (0,1), (0,2), …, (0,n−1), (1,2), …  Symmetric in u, v.
[[nodiscard]] std::size_t edge_index(std::size_t n, NodeId u, NodeId v) noexcept;

/// Inverse of edge_index.
struct EdgePair {
  NodeId u;
  NodeId v;
};
[[nodiscard]] EdgePair edge_from_index(std::size_t n, std::size_t index) noexcept;

/// Encodes G into its n(n−1)/2-bit string E(G).
[[nodiscard]] bitio::BitVector encode(const Graph& g);

/// Decodes an n(n−1)/2-bit string into a graph on n nodes, walking the
/// set bits a word at a time. Throws std::invalid_argument if the length
/// does not match. Graph files go through core::decode_graph, which checks
/// the file's header and size before it calls this.
[[nodiscard]] Graph decode(const bitio::BitVector& bits, std::size_t n);

}  // namespace optrt::graph
