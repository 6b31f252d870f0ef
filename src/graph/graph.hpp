// Undirected simple graphs on nodes {0, …, n−1}: the one graph substrate.
//
// The paper works with point-to-point networks given as undirected graphs on
// n nodes labelled 1..n (§1); we use 0-based ids internally and call them
// "labels" — the shift never affects any bound. Its routing functions read
// two views of a network, and a Graph keeps exactly one store for each:
//
//   · CSR slices — one offsets array plus one flat neighbour array with
//     every slice sorted: ordered neighbour enumeration, which Lemma 3 and
//     Theorem 1 rely on ("the least (c+3)log n nodes directly adjacent to
//     u"), walked with unit-stride loads. Arcs (directed edge slots) get
//     consecutive ids within each slice, so per-link state is a plain
//     vector indexed by arc id, and the arc id minus arc_begin(u) is the
//     sorted port.
//   · Bit rows — n packed rows: O(1) edge tests and the E(G) string of
//     Definition 2, which model II grants for free and the Lemma 1–3
//     codecs read.
//
// Both stores live in one block that copies of a Graph share, so a Graph
// is a cheap value: compiled routing forms, port assignments and schemes
// that must outlive the Graph they were built from hold a copy of it.
// Graphs are built whole from an edge list. add_edge/remove_edge, which
// serve tests and churn repair's single-link toggles, rewrite the flat
// array in O(n + m), first copying the block when another Graph shares it
// — so mutating one Graph never changes another. Any mutation invalidates
// that Graph's neighbors() spans. Copies may be read, copied and destroyed
// on any threads. A mutation writes in place only when no other copy holds
// the block, which it learns from a relaxed reference-count read, so a
// thread that drops the last other copy must synchronize with the
// mutating thread first (a join, a lock, a queue).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace optrt::graph {

using NodeId = std::uint32_t;

/// An undirected edge {first, second}, in either orientation.
using Edge = std::pair<NodeId, NodeId>;

/// Arc id returned by arc_index() when (u, v) is not an edge.
inline constexpr std::size_t kNoArc = static_cast<std::size_t>(-1);

/// An undirected simple graph: sorted CSR neighbour slices plus packed bit
/// rows, always in step, in one block shared by the Graph's copies.
class Graph {
 public:
  /// The graph on `n` nodes with these edges (each once, either
  /// orientation, any order); edgeless by default. A self-loop, a
  /// duplicate in either orientation or an id >= n is rejected with
  /// std::invalid_argument, as add_edge rejects it.
  explicit Graph(std::size_t n, std::span<const Edge> edges = {});

  [[nodiscard]] std::size_t node_count() const noexcept {
    return store_->csr.node_count();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept {
    return store_->csr.arc_count() / 2;
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
    return store_->bits.has_edge(u, v);
  }

  [[nodiscard]] std::size_t degree(NodeId u) const noexcept {
    return store_->csr.degree(u);
  }

  /// Neighbours of `u` in increasing label order.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const noexcept {
    return store_->csr.neighbors(u);
  }
  /// The p-th least neighbour of u.
  [[nodiscard]] NodeId neighbor_at(NodeId u, std::uint32_t p) const noexcept {
    return store_->csr.neighbor_at(u, p);
  }
  /// Arc ids: u→neighbors(u)[p] is arc arc_begin(u) + p, in [0, arc_count).
  [[nodiscard]] std::size_t arc_count() const noexcept {
    return store_->csr.arc_count();
  }
  [[nodiscard]] std::size_t arc_begin(NodeId u) const noexcept {
    return store_->csr.arc_begin(u);
  }
  /// Id of the arc u→v, or kNoArc when {u, v} is not an edge.
  [[nodiscard]] std::size_t arc_index(NodeId u, NodeId v) const noexcept {
    return store_->csr.arc_index(u, v);
  }

  /// Minimum and maximum degree over all nodes (0 for the empty graph).
  [[nodiscard]] std::size_t min_degree() const noexcept;
  [[nodiscard]] std::size_t max_degree() const noexcept;

  /// Packed adjacency-matrix row of `u` (ceil(n/64) words; bit v set iff
  /// {u,v} ∈ E). Used for word-parallel common-neighbour tests.
  [[nodiscard]] std::span<const std::uint64_t> row_words(
      NodeId u) const noexcept {
    return store_->bits.row_words(u);
  }

  friend bool operator==(const Graph& a, const Graph& b) noexcept {
    // The bit rows follow from the slices.
    return a.store_ == b.store_ || a.store_->csr == b.store_->csr;
  }

 private:
  /// Packed adjacency-matrix rows: bit v of row u is set iff {u, v} ∈ E.
  class AdjacencyBits {
   public:
    /// n empty rows.
    explicit AdjacencyBits(std::size_t n)
        : words_per_row_((n + 63) / 64), words_(n * words_per_row_, 0) {}

    [[nodiscard]] bool has_edge(NodeId u, NodeId v) const noexcept {
      const std::size_t i = static_cast<std::size_t>(u) * words_per_row_ +
                            (static_cast<std::size_t>(v) >> 6);
      return (words_[i] >> (v & 63)) & 1u;
    }
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
  class CsrAdjacency {
   public:
    /// Slices of the simple graph on n nodes with these edges.
    /// Precondition: every edge is in range, not a loop, and listed once.
    CsrAdjacency(std::size_t n, std::span<const Edge> edges);

    [[nodiscard]] std::size_t node_count() const noexcept {
      return offsets_.size() - 1;
    }
    [[nodiscard]] std::size_t arc_count() const noexcept {
      return neighbors_.size();
    }
    [[nodiscard]] std::size_t degree(NodeId u) const noexcept {
      return offsets_[u + 1] - offsets_[u];
    }
    [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const noexcept {
      return {neighbors_.data() + offsets_[u], degree(u)};
    }
    [[nodiscard]] NodeId neighbor_at(NodeId u,
                                     std::uint32_t p) const noexcept {
      return neighbors_[offsets_[u] + p];
    }
    [[nodiscard]] std::size_t arc_begin(NodeId u) const noexcept {
      return offsets_[u];
    }
    /// Binary search in u's slice.
    [[nodiscard]] std::size_t arc_index(NodeId u, NodeId v) const noexcept;
    /// Adds both arcs of the edge {u, v} / removes them; O(n + m).
    /// Precondition: absent / present respectively.
    void insert(NodeId u, NodeId v);
    void erase(NodeId u, NodeId v);

    friend bool operator==(const CsrAdjacency&,
                           const CsrAdjacency&) = default;

   private:
    std::vector<std::size_t> offsets_;  // n + 1 entries
    std::vector<NodeId> neighbors_;     // sorted slices, back to back
  };

  /// The two stores. Never changed while more than one Graph holds it.
  struct Store {
    AdjacencyBits bits;  // built first: it validates the edge list
    CsrAdjacency csr;
  };

  /// The store to mutate: a private copy first when another Graph shares
  /// it.
  Store& own();

  std::shared_ptr<Store> store_;
};

}  // namespace optrt::graph
