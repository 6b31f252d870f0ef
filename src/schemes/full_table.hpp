// The literal routing table: per node, one fixed-width port entry per
// destination — the trivial O(n² log n)-bit upper bound the paper measures
// everything against, and (by Theorem 8) asymptotically optimal in model
// IA∧α where the adversary fixes the port assignment.
//
// Works in every model, for every connected graph, always shortest path.
#pragma once

#include <vector>

#include "bitio/bit_vector.hpp"
#include "graph/algorithms.hpp"
#include "graph/labeling.hpp"
#include "graph/ports.hpp"
#include "model/scheme.hpp"

namespace optrt::schemes {

using graph::NodeId;

class FullTableScheme final : public model::RoutingScheme {
 public:
  /// Builds tables routing via the least shortest-path successor, against
  /// the given (possibly adversarial) port assignment and labelling.
  FullTableScheme(const graph::Graph& g, graph::PortAssignment ports,
                  graph::Labeling labeling, model::Model declared_model);

  /// Convenience: identity labels, sorted ports, model IA∧α semantics.
  static FullTableScheme standard(const graph::Graph& g);

  /// Reconstructs a scheme from serialized tables (deserialization path;
  /// see schemes/serialization.hpp). Entry widths are recomputed from the
  /// degrees; table lengths must match n·⌈log₂ d(u)⌉.
  FullTableScheme(const graph::Graph& g, graph::PortAssignment ports,
                  graph::Labeling labeling, model::Model declared_model,
                  std::vector<bitio::BitVector> tables);

  [[nodiscard]] std::string name() const override { return "full-table"; }
  [[nodiscard]] model::Model routing_model() const override { return model_; }
  [[nodiscard]] std::size_t node_count() const override { return n_; }
  [[nodiscard]] NodeId label_of(NodeId node) const override {
    return labeling_.label_of(node);
  }
  [[nodiscard]] NodeId node_of_label(NodeId label) const override {
    return labeling_.node_of(label);
  }
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label,
                                model::MessageHeader& header) const override;
  [[nodiscard]] model::SpaceReport space() const override;
  /// Compiled form: all tables concatenated into one word array read with
  /// word-aligned extraction, plus a port-order CSR for port → neighbour.
  [[nodiscard]] std::shared_ptr<const model::FastPath> compile_fast()
      const override;

  /// The serialized table of node u (n fixed-width port entries).
  [[nodiscard]] const bitio::BitVector& function_bits(NodeId u) const {
    return table_bits_[u];
  }
  /// Entry width at node u: ⌈log₂ d(u)⌉ bits.
  [[nodiscard]] unsigned entry_width(NodeId u) const { return width_[u]; }
  /// The port assignment the tables were built against.
  [[nodiscard]] const graph::PortAssignment& ports() const { return ports_; }

 private:
  std::size_t n_;
  model::Model model_;
  graph::PortAssignment ports_;
  graph::Labeling labeling_;
  std::vector<unsigned> width_;
  std::vector<bitio::BitVector> table_bits_;
};

}  // namespace optrt::schemes
