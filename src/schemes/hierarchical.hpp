// k-level hierarchical pivot routing — the general form of the §1.2
// trade-off schemes (Peleg–Upfal [9]: stretch grows with the hierarchy
// depth k while tables shrink toward Õ(n^{1/k}·n)).
//
// Construction (Thorup–Zwick-style pivots with installed handoff paths):
//   · nested pivot sets V = A₀ ⊋ A₁ ⊋ … ⊋ A_{k−1}, |A_i| ≈ n^{1−i/k};
//   · p_i(v) = nearest level-i pivot of v; the charged label of v is
//     (v, p₁(v), …, p_{k−1}(v)) — k·⌈log n⌉ bits (model γ);
//   · every node stores: (T) next hops toward every top pivot (A_{k−1}),
//     (V) next hops toward its vicinity C(w) = {v : d(w,v) ≤ d(v,p₁(v))},
//     and (H) installed waypoint entries: for every level-i pivot t and
//     every child pivot x = p_{i−1}(v) of a v with p_i(v) = t, a next-hop
//     entry for x at every node of one fixed shortest t→x path (the
//     label-switched-path trick real hierarchies use).
// Every port is the rank of the least shortest-path successor, read from
// the cluster layer (schemes/landmark_table.hpp): (T) from
// graph::least_ports over the top pivots, (V) from ClusterBfs under
// r = d(·, A₁) + 1, and (H) from graph::least_ports over up to 64 child
// pivots at a time. No all-pairs matrix is built or read.
//
// Routing (waypoint in the message header): head for the lowest-level
// pivot of the destination you can resolve — vicinity entries self-sustain
// (if v ∈ C(w) then v ∈ C(next hop)), top pivots are resolvable
// everywhere, and handoff legs follow installed entries. Every leg
// strictly decreases the distance to its waypoint and every handoff
// strictly decreases the pivot level, so delivery always terminates;
// stretch is measured, and shrinks tables as k grows.
#pragma once

#include <memory>
#include <vector>

#include "bitio/bit_vector.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "model/scheme.hpp"

namespace optrt::schemes {

using graph::NodeId;

struct HierarchicalOptions {
  std::size_t levels = 3;   ///< k ≥ 2; k = 2 ≈ the landmark scheme
  std::uint64_t seed = 1;
};

class HierarchicalFastPath;

class HierarchicalScheme final : public model::RoutingScheme {
 public:
  using Options = HierarchicalOptions;

  /// Throws SchemeInapplicable on disconnected graphs or levels < 2.
  explicit HierarchicalScheme(const graph::Graph& g, Options options = {});

  /// Reconstructs from serialized state (deserialization path; see
  /// schemes/serialization.hpp): the pivot sets plus per-node bits.
  /// Nearest pivots are recomputed from the graph (least id on ties).
  HierarchicalScheme(const graph::Graph& g,
                     std::vector<std::vector<NodeId>> pivot_sets,
                     std::vector<bitio::BitVector> node_bits);

  [[nodiscard]] std::string name() const override { return "hierarchical"; }
  [[nodiscard]] model::Model routing_model() const override {
    return model::kIIgamma;
  }
  [[nodiscard]] std::size_t node_count() const override { return n_; }
  /// Continues an active waypoint leg from the compiled tables; otherwise
  /// takes the compiled form's fresh-header decision and records its
  /// target in the header.
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label,
                                model::MessageHeader& header) const override;
  [[nodiscard]] bool reads_header() const override { return true; }
  [[nodiscard]] NodeId reference_next_hop(const graph::Graph& g, NodeId u,
                                          NodeId dest_label) const override;
  [[nodiscard]] model::SpaceReport space() const override;
  [[nodiscard]] std::vector<NodeId> port_enumeration(NodeId u) const override;
  /// Compiled form, built in the constructor: per node, a rank-indexed
  /// target membership vector with bit-packed ports, from which a fresh
  /// next_hop takes the first listed of the destination and its pivots
  /// bottom-up; it also holds the pivot label table.
  [[nodiscard]] std::shared_ptr<const model::FastPath> compile_fast()
      const override;

  [[nodiscard]] std::size_t levels() const { return levels_; }
  [[nodiscard]] const std::vector<NodeId>& pivots(std::size_t level) const {
    return pivot_sets_[level];
  }
  /// v's level-i pivot, from the label table.
  [[nodiscard]] NodeId pivot_of(std::size_t level, NodeId v) const;
  [[nodiscard]] const bitio::BitVector& function_bits(NodeId u) const {
    return function_bits_[u];
  }

 private:
  /// The validating decode of the node bits into fast_, shared by both
  /// constructors; also derives the pivot label table.
  void compile(const graph::Graph& g, std::vector<bitio::BitVector> node_bits);

  std::size_t n_;
  std::size_t levels_;
  std::vector<std::vector<NodeId>> pivot_sets_;  // [level] sorted; [0] empty
  std::vector<bitio::BitVector> function_bits_;
  std::shared_ptr<const HierarchicalFastPath> fast_;
};

}  // namespace optrt::schemes
