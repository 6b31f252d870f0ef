// Undirected simple graphs on nodes {0, …, n−1}.
//
// The paper works with point-to-point networks given as undirected graphs on
// n nodes labelled 1..n (§1); we use 0-based ids internally and call them
// "labels" — the shift never affects any bound. The structure keeps both a
// packed adjacency matrix (O(1) edge queries, and the natural substrate for
// the E(G) codec of Definition 2) and sorted adjacency lists (ordered
// neighbour enumeration, which Lemma 3 and Theorem 1 rely on: "the least
// (c+3)log n nodes directly adjacent to u").
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace optrt::graph {

using NodeId = std::uint32_t;

/// An undirected simple graph with O(1) adjacency tests and sorted
/// neighbour lists.
class Graph {
 public:
  /// Creates an edgeless graph on `n` nodes.
  explicit Graph(std::size_t n);

  [[nodiscard]] std::size_t node_count() const noexcept { return n_; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return m_; }

  /// Adds the undirected edge {u, v}. Self-loops and duplicates are
  /// rejected with std::invalid_argument.
  void add_edge(NodeId u, NodeId v);

  /// Removes the undirected edge {u, v}; neighbour lists stay sorted.
  /// A non-edge, a self-pair or an out-of-range id is rejected with
  /// std::invalid_argument.
  void remove_edge(NodeId u, NodeId v);

  /// True iff {u, v} is an edge.
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const noexcept {
    const std::size_t i = static_cast<std::size_t>(u) * words_per_row_ +
                          (static_cast<std::size_t>(v) >> 6);
    return (matrix_[i] >> (v & 63)) & 1u;
  }

  [[nodiscard]] std::size_t degree(NodeId u) const noexcept {
    return adjacency_[u].size();
  }

  /// Neighbours of `u` in increasing label order.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const noexcept {
    return adjacency_[u];
  }

  /// Minimum and maximum degree over all nodes (0 for the empty graph).
  [[nodiscard]] std::size_t min_degree() const noexcept;
  [[nodiscard]] std::size_t max_degree() const noexcept;

  /// Packed adjacency-matrix row of `u` (ceil(n/64) words; bit v set iff
  /// {u,v} ∈ E). Used for word-parallel common-neighbour tests.
  [[nodiscard]] std::span<const std::uint64_t> row_words(NodeId u) const noexcept {
    return {matrix_.data() + static_cast<std::size_t>(u) * words_per_row_,
            words_per_row_};
  }

  friend bool operator==(const Graph& a, const Graph& b) noexcept {
    return a.n_ == b.n_ && a.adjacency_ == b.adjacency_;
  }

 private:
  std::size_t n_;
  std::size_t m_ = 0;
  std::size_t words_per_row_;
  std::vector<std::uint64_t> matrix_;      // n rows of ceil(n/64) words
  std::vector<std::vector<NodeId>> adjacency_;
};

}  // namespace optrt::graph
