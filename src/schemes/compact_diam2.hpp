// Theorem 1: shortest-path routing on O(log n)-random graphs with local
// routing functions of at most 6n bits per node (models IB ∨ II, labels
// α/β untouched) — the complete scheme is O(n²) bits.
//
// Every node stores the two-table compact structure of compact_node.hpp.
// Under II the neighbour labels are free; under IB the table embeds the
// node's interconnection vector (n−1 extra bits, the "7n" variant in the
// proof) and ports take the canonical sorted assignment.
#pragma once

#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "model/scheme.hpp"
#include "schemes/compact_node.hpp"

namespace optrt::schemes {

class CompactDiam2FastPath;

class CompactDiam2Scheme final : public model::RoutingScheme {
 public:
  struct Options {
    /// Model: II (neighbours known) or IB (free ports, adjacency embedded).
    bool neighbors_known = true;
    CompactNodeOptions node;  ///< cover order / threshold ablations

    [[nodiscard]] static Options for_model(const model::Model& m);
  };

  /// Builds the scheme. Throws SchemeInapplicable unless every node's
  /// neighbours dominate its non-neighbours (true for certified random
  /// graphs: diameter 2 through the Lemma 3 cover).
  CompactDiam2Scheme(const graph::Graph& g, Options options);

  /// Reconstructs a scheme from serialized per-node tables (the
  /// deserialization path; see schemes/serialization.hpp). The per-table
  /// split statistics are not recorded in the artifact and read as zero.
  CompactDiam2Scheme(const graph::Graph& g, Options options,
                     std::vector<bitio::BitVector> node_bits);

  [[nodiscard]] std::string name() const override { return "compact-diam2"; }
  [[nodiscard]] model::Model routing_model() const override;
  [[nodiscard]] std::size_t node_count() const override { return n_; }
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label,
                                model::MessageHeader& header) const override;
  [[nodiscard]] NodeId reference_next_hop(const graph::Graph& g, NodeId u,
                                          NodeId dest_label) const override;
  [[nodiscard]] model::SpaceReport space() const override;
  /// Compiled form, built in the constructor: per node, a rank-indexed
  /// sparse table of the routed (non-neighbour) destinations; direct
  /// destinations answer themselves.
  [[nodiscard]] std::shared_ptr<const model::FastPath> compile_fast()
      const override;

  /// Serialized local routing function of `u` (exactly what the compiled
  /// form was decoded from).
  [[nodiscard]] const bitio::BitVector& function_bits(NodeId u) const {
    return bits_[u].bits;
  }

  /// Reporting: split of each node's table into unary/fixed parts.
  [[nodiscard]] const CompactNodeBits& node_tables(NodeId u) const {
    return bits_[u];
  }

 private:
  /// Free neighbour knowledge of `u`: its sorted neighbours under II,
  /// nothing under IB (the table carries its own interconnection vector).
  [[nodiscard]] std::vector<NodeId> free_neighbors(const graph::Graph& g,
                                                   NodeId u) const;
  /// The validating decode of bits_ into fast_, shared by both
  /// constructors.
  void compile(const graph::Graph& g);

  std::size_t n_;
  Options options_;
  std::vector<CompactNodeBits> bits_;
  std::shared_ptr<const CompactDiam2FastPath> fast_;
};

}  // namespace optrt::schemes
