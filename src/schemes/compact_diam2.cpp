#include "schemes/compact_diam2.hpp"

#include <stdexcept>
#include <utility>

#include "model/fastpath.hpp"

namespace optrt::schemes {

class CompactDiam2FastPath final : public model::FastPath {
 public:
  explicit CompactDiam2FastPath(std::vector<model::PackedSparseArray> tables)
      : tables_(std::move(tables)) {}

  [[nodiscard]] std::string name() const override { return "compact-diam2"; }
  [[nodiscard]] std::size_t node_count() const override {
    return tables_.size();
  }

  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label) const override {
    if (dest_label == u) {
      throw std::invalid_argument("CompactDiam2Scheme: routing to self");
    }
    const auto& table = tables_[u];
    if (table.contains(dest_label)) {
      return static_cast<NodeId>(table.value(dest_label));
    }
    return dest_label;  // direct destination (a neighbour of u)
  }

 private:
  std::vector<model::PackedSparseArray> tables_;
};

CompactDiam2Scheme::Options CompactDiam2Scheme::Options::for_model(
    const model::Model& m) {
  Options opt;
  opt.neighbors_known = m.neighbors_known();
  opt.node.include_adjacency = !m.neighbors_known();
  return opt;
}

CompactDiam2Scheme::CompactDiam2Scheme(const graph::Graph& g, Options options)
    : n_(g.node_count()), options_(options) {
  options_.node.include_adjacency = !options_.neighbors_known;
  bits_.reserve(n_);
  for (NodeId u = 0; u < n_; ++u) {
    bits_.push_back(build_compact_node(g, u, options_.node));
  }
  compile(g);
}

CompactDiam2Scheme::CompactDiam2Scheme(const graph::Graph& g, Options options,
                                       std::vector<bitio::BitVector> node_bits)
    : n_(g.node_count()), options_(options) {
  options_.node.include_adjacency = !options_.neighbors_known;
  if (node_bits.size() != n_) {
    throw std::invalid_argument("CompactDiam2Scheme: node count mismatch");
  }
  bits_.reserve(n_);
  for (auto& bits : node_bits) bits_.push_back({std::move(bits)});
  compile(g);
}

std::vector<NodeId> CompactDiam2Scheme::free_neighbors(const graph::Graph& g,
                                                       NodeId u) const {
  if (!options_.neighbors_known) return {};
  const auto nbrs = g.neighbors(u);
  return {nbrs.begin(), nbrs.end()};
}

void CompactDiam2Scheme::compile(const graph::Graph& g) {
  std::vector<model::PackedSparseArray> tables;
  tables.reserve(n_);
  for (NodeId u = 0; u < n_; ++u) {
    tables.push_back(compile_compact_node(bits_[u].bits, n_, u, options_.node,
                                          free_neighbors(g, u)));
  }
  fast_ = std::make_shared<CompactDiam2FastPath>(std::move(tables));
  model::note_fastpath_compiled("compact_diam2");
}

model::Model CompactDiam2Scheme::routing_model() const {
  return model::Model{options_.neighbors_known
                          ? model::Knowledge::kNeighborsKnown
                          : model::Knowledge::kFreePorts,
                      model::Relabeling::kNone};
}

NodeId CompactDiam2Scheme::next_hop(NodeId u, NodeId dest_label,
                                    model::MessageHeader&) const {
  return fast_->next_hop(u, dest_label);
}

NodeId CompactDiam2Scheme::reference_next_hop(const graph::Graph& g, NodeId u,
                                              NodeId dest_label) const {
  const NodeId hop = decode_compact_node(bits_[u].bits, n_, u, options_.node,
                                         free_neighbors(g, u))
                         .next_of[dest_label];
  if (hop == DecodedCompactNode::kInvalid) {
    throw std::invalid_argument("CompactDiam2Scheme: routing to self");
  }
  return hop;
}

std::shared_ptr<const model::FastPath> CompactDiam2Scheme::compile_fast()
    const {
  return fast_;
}

model::SpaceReport CompactDiam2Scheme::space() const {
  model::SpaceReport report;
  report.function_bits.reserve(n_);
  for (const auto& nb : bits_) report.function_bits.push_back(nb.bits.size());
  return report;
}

}  // namespace optrt::schemes
