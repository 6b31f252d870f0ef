// Landmark (pivot) compact routing with stretch ≤ 3 — the related-work
// baseline of §1.2 (Peleg–Upfal [9] trade-off schemes, in the Cowen-style
// formulation).
//
// Pick a landmark set L (default ⌈√n⌉ random nodes). Let l(v) be v's
// nearest landmark. Node w stores
//   (a) a next-hop port toward every landmark, and
//   (b) a next-hop port for every v in its *vicinity*
//       C(w) = { v : d(w, v) ≤ d(v, l(v)) }.
// Destinations are addressed by the charged label (v, l(v)) (model γ).
// Routing: deliver directly while the destination is in the current
// vicinity; otherwise head for its landmark. Once the handoff happens the
// walk is a shortest path, and the detour costs at most 2·d(v, l(v)) <
// 2·d(u, v) — stretch < 3 on every connected graph, no randomness
// assumptions.
//
// On the paper's dense diameter-2 graphs vicinities are huge and this
// scheme loses badly to Theorem 1 — exactly the §1.2 point that general
// trade-off schemes do not give optimal shortest-path tables on almost all
// graphs. On sparse graphs (where Theorem 1 does not even apply) it is the
// scheme of choice. bench_related_work measures both regimes.
#pragma once

#include <memory>
#include <vector>

#include "bitio/bit_vector.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "model/scheme.hpp"

namespace optrt::schemes {

using graph::NodeId;

struct LandmarkOptions {
  /// Number of landmarks; 0 = ⌈√n⌉.
  std::size_t landmark_count = 0;
  /// Seed for the landmark sample.
  std::uint64_t seed = 1;
};

class LandmarkFastPath;

class LandmarkScheme final : public model::RoutingScheme {
 public:
  using Options = LandmarkOptions;

  /// Throws SchemeInapplicable on disconnected graphs.
  explicit LandmarkScheme(const graph::Graph& g, Options options = {});

  /// Reconstructs from serialized state (deserialization path; see
  /// schemes/serialization.hpp): the sorted landmark set plus per-node
  /// bits. Nearest landmarks are recomputed from the graph by one
  /// multi-source BFS (deterministic: the first in stored order on ties).
  LandmarkScheme(const graph::Graph& g, std::vector<NodeId> landmarks,
                 std::vector<bitio::BitVector> node_bits);

  [[nodiscard]] std::string name() const override { return "landmark"; }
  [[nodiscard]] model::Model routing_model() const override {
    return model::kIIgamma;
  }
  [[nodiscard]] std::size_t node_count() const override { return n_; }
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label,
                                model::MessageHeader& header) const override;
  [[nodiscard]] NodeId reference_next_hop(const graph::Graph& g, NodeId u,
                                          NodeId dest_label) const override;
  [[nodiscard]] model::SpaceReport space() const override;
  /// Compiled form, built in the constructor: per node, a rank-indexed
  /// vicinity membership vector plus bit-packed landmark ports, resolved
  /// through a port-order CSR; it also holds the landmark label table.
  [[nodiscard]] std::shared_ptr<const model::FastPath> compile_fast()
      const override;

  [[nodiscard]] const std::vector<NodeId>& landmarks() const {
    return landmarks_;
  }
  /// v's nearest landmark (least id on ties), from the label table.
  [[nodiscard]] NodeId landmark_of(NodeId v) const;
  [[nodiscard]] std::size_t vicinity_size(NodeId w) const;
  [[nodiscard]] const bitio::BitVector& function_bits(NodeId u) const {
    return function_bits_[u];
  }

 private:
  /// The validating decode of the node bits into fast_, shared by both
  /// constructors.
  void compile(const graph::Graph& g, std::vector<bitio::BitVector> node_bits);

  std::size_t n_;
  std::vector<NodeId> landmarks_;  // sorted
  std::vector<bitio::BitVector> function_bits_;
  std::shared_ptr<const LandmarkFastPath> fast_;
};

}  // namespace optrt::schemes
