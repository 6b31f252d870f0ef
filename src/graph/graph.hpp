// Undirected simple graphs on nodes {0, …, n−1}: the one graph substrate.
//
// The paper works with point-to-point networks given as undirected graphs on
// n nodes labelled 1..n (§1); we use 0-based ids internally and call them
// "labels" — the shift never affects any bound. Its routing functions read
// two views of a network, and a Graph keeps exactly one store for each:
//
//   · CsrAdjacency — one offsets array plus one flat neighbour array with
//     every slice sorted: ordered neighbour enumeration, which Lemma 3 and
//     Theorem 1 rely on ("the least (c+3)log n nodes directly adjacent to
//     u"), walked with unit-stride loads. Arcs (directed edge slots) get
//     consecutive ids within each slice, so per-link state is a plain
//     vector indexed by arc id, and the arc id minus arc_begin(u) is the
//     sorted port.
//   · AdjacencyBits — n packed bit rows: O(1) edge tests and the E(G)
//     string of Definition 2, which model II grants for free and the
//     Lemma 1–3 codecs read.
//
// Graphs are built whole from an edge list. add_edge/remove_edge rewrite
// the flat array in O(n + m); they serve tests and churn repair's
// single-link toggles. Any mutation invalidates every neighbors() span.
// Compiled routing forms that must outlive a Graph copy only the store
// they read (csr() or bit_rows()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace optrt::graph {

using NodeId = std::uint32_t;

/// An undirected edge {first, second}, in either orientation.
using Edge = std::pair<NodeId, NodeId>;

/// Arc id returned by arc_index() when (u, v) is not an edge.
inline constexpr std::size_t kNoArc = static_cast<std::size_t>(-1);

/// Packed adjacency-matrix rows: bit v of row u is set iff {u, v} ∈ E.
class AdjacencyBits {
 public:
  AdjacencyBits() = default;
  /// n empty rows.
  explicit AdjacencyBits(std::size_t n)
      : words_per_row_((n + 63) / 64), words_(n * words_per_row_, 0) {}

  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const noexcept {
    const std::size_t i = static_cast<std::size_t>(u) * words_per_row_ +
                          (static_cast<std::size_t>(v) >> 6);
    return (words_[i] >> (v & 63)) & 1u;
  }

  /// Row of `u` (ceil(n/64) words), for word-parallel common-neighbour
  /// tests.
  [[nodiscard]] std::span<const std::uint64_t> row_words(
      NodeId u) const noexcept {
    return {words_.data() + static_cast<std::size_t>(u) * words_per_row_,
            words_per_row_};
  }

  /// Sets (present) or clears both bits of {u, v}.
  void set(NodeId u, NodeId v, bool present) noexcept {
    flip_to(u, v, present);
    flip_to(v, u, present);
  }

 private:
  void flip_to(NodeId u, NodeId v, bool present) noexcept {
    std::uint64_t& word =
        words_[static_cast<std::size_t>(u) * words_per_row_ + (v >> 6)];
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    word = present ? word | bit : word & ~bit;
  }

  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;  // n rows of words_per_row_ words
};

/// Compressed sparse row adjacency: offsets_[u] .. offsets_[u+1] delimit
/// u's neighbour slice, in increasing id order, inside one flat array.
/// Only a Graph builds or changes one; compiled forms keep copies.
class CsrAdjacency {
 public:
  CsrAdjacency() = default;

  [[nodiscard]] std::size_t node_count() const noexcept {
    return offsets_.size() - 1;
  }
  /// Total number of directed arcs (twice the edge count).
  [[nodiscard]] std::size_t arc_count() const noexcept {
    return neighbors_.size();
  }
  [[nodiscard]] std::size_t degree(NodeId u) const noexcept {
    return offsets_[u + 1] - offsets_[u];
  }
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const noexcept {
    return {neighbors_.data() + offsets_[u], degree(u)};
  }
  /// The p-th least neighbour of u (the node on u's sorted port p).
  [[nodiscard]] NodeId neighbor_at(NodeId u, std::uint32_t p) const noexcept {
    return neighbors_[offsets_[u] + p];
  }
  /// First arc id of u's slice.
  [[nodiscard]] std::size_t arc_begin(NodeId u) const noexcept {
    return offsets_[u];
  }
  /// Dense id of the directed arc u→v, or kNoArc when v is not a
  /// neighbour of u (binary search in u's slice).
  [[nodiscard]] std::size_t arc_index(NodeId u, NodeId v) const noexcept;

  friend bool operator==(const CsrAdjacency&,
                         const CsrAdjacency&) = default;

 private:
  friend class Graph;  // the only builder: it validates edges first

  /// Slices of the simple graph on n nodes with these edges. Precondition:
  /// every edge is in range, not a loop, and listed once.
  CsrAdjacency(std::size_t n, std::span<const Edge> edges);
  /// Adds both arcs of the edge {u, v} / removes them; O(n + m).
  /// Precondition: absent / present respectively.
  void insert(NodeId u, NodeId v);
  void erase(NodeId u, NodeId v);

  std::vector<std::size_t> offsets_{0};  // n + 1 entries
  std::vector<NodeId> neighbors_;        // sorted slices, back to back
};

/// An undirected simple graph: sorted CSR neighbour slices plus packed bit
/// rows, always in step.
class Graph {
 public:
  /// The graph on `n` nodes with these edges (each once, either
  /// orientation, any order); edgeless by default. A self-loop, a
  /// duplicate in either orientation or an id >= n is rejected with
  /// std::invalid_argument, as add_edge rejects it.
  explicit Graph(std::size_t n, std::span<const Edge> edges = {});

  [[nodiscard]] std::size_t node_count() const noexcept {
    return csr_.node_count();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return csr_.arc_count() / 2;
  }

  /// Adds the undirected edge {u, v} in O(n + m). Self-loops, duplicates
  /// and out-of-range ids are rejected with std::invalid_argument.
  void add_edge(NodeId u, NodeId v);

  /// Removes the undirected edge {u, v} in O(n + m). A non-edge, a
  /// self-pair or an out-of-range id is rejected with
  /// std::invalid_argument.
  void remove_edge(NodeId u, NodeId v);

  /// True iff {u, v} is an edge.
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const noexcept {
    return bits_.has_edge(u, v);
  }

  [[nodiscard]] std::size_t degree(NodeId u) const noexcept {
    return csr_.degree(u);
  }

  /// Neighbours of `u` in increasing label order.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const noexcept {
    return csr_.neighbors(u);
  }
  /// The p-th least neighbour of u.
  [[nodiscard]] NodeId neighbor_at(NodeId u, std::uint32_t p) const noexcept {
    return csr_.neighbor_at(u, p);
  }
  /// Arc ids: u→neighbors(u)[p] is arc arc_begin(u) + p, in [0, arc_count).
  [[nodiscard]] std::size_t arc_count() const noexcept {
    return csr_.arc_count();
  }
  [[nodiscard]] std::size_t arc_begin(NodeId u) const noexcept {
    return csr_.arc_begin(u);
  }
  /// Id of the arc u→v, or kNoArc when {u, v} is not an edge.
  [[nodiscard]] std::size_t arc_index(NodeId u, NodeId v) const noexcept {
    return csr_.arc_index(u, v);
  }

  /// Minimum and maximum degree over all nodes (0 for the empty graph).
  [[nodiscard]] std::size_t min_degree() const noexcept;
  [[nodiscard]] std::size_t max_degree() const noexcept;

  /// Packed adjacency-matrix row of `u` (ceil(n/64) words; bit v set iff
  /// {u,v} ∈ E). Used for word-parallel common-neighbour tests.
  [[nodiscard]] std::span<const std::uint64_t> row_words(
      NodeId u) const noexcept {
    return bits_.row_words(u);
  }

  /// The two stores, for compiled forms that keep a copy of one.
  [[nodiscard]] const CsrAdjacency& csr() const noexcept { return csr_; }
  [[nodiscard]] const AdjacencyBits& bit_rows() const noexcept {
    return bits_;
  }

  friend bool operator==(const Graph& a, const Graph& b) noexcept {
    return a.csr_ == b.csr_;  // the bit rows follow from the slices
  }

 private:
  AdjacencyBits bits_;  // built first: it validates the edge list
  CsrAdjacency csr_;
};

}  // namespace optrt::graph
