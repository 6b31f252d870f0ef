#include "schemes/sequential_search.hpp"

#include <stdexcept>
#include <utility>

#include "model/fastpath.hpp"

namespace optrt::schemes {

SequentialSearchScheme::SequentialSearchScheme(const graph::Graph& g)
    : g_(g) {}

namespace {

class SequentialSearchFastPath final
    : public model::DirectBatchFastPath<SequentialSearchFastPath> {
 public:
  explicit SequentialSearchFastPath(graph::Graph g) : g_(std::move(g)) {}

  [[nodiscard]] std::string name() const override {
    return "sequential-search";
  }
  [[nodiscard]] std::size_t node_count() const override {
    return g_.node_count();
  }

  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label) const override {
    if (dest_label == u) {
      throw std::invalid_argument("SequentialSearchScheme: routing to self");
    }
    // An isolated node has no edge, so testing its degree before the
    // destination's adjacency throws for exactly the same pairs.
    if (g_.degree(u) == 0) {
      throw std::invalid_argument("SequentialSearchScheme: isolated node");
    }
    // A neighbour is delivered to; otherwise launch the first probe.
    return model::select(g_.has_edge(u, dest_label), dest_label,
                         g_.neighbor_at(u, 0));
  }

 private:
  graph::Graph g_;
};

}  // namespace

std::shared_ptr<const model::FastPath> SequentialSearchScheme::compile_fast()
    const {
  model::note_fastpath_compiled("sequential_search");
  return std::make_shared<SequentialSearchFastPath>(g_);
}

NodeId SequentialSearchScheme::next_hop(NodeId u, NodeId dest_label,
                                        model::MessageHeader& header) const {
  if (dest_label == u) {
    throw std::invalid_argument("SequentialSearchScheme: routing to self");
  }
  // Free under II: direct neighbours need no table (and a successful probe
  // forwards here too).
  if (g_.has_edge(u, dest_label)) {
    header.phase = kAtSource;
    return dest_label;
  }
  const auto nbrs = g_.neighbors(u);
  switch (header.phase) {
    case kAtSource: {
      // We are the source: launch the first probe.
      if (nbrs.empty()) {
        throw std::invalid_argument("SequentialSearchScheme: isolated node");
      }
      header.phase = kProbing;
      header.probe_index = 0;
      return nbrs[0];
    }
    case kProbing: {
      // A probe arrived and the destination is not our neighbour: bounce it
      // back over the link it came from.
      header.phase = kReturning;
      return header.came_from;
    }
    case kReturning: {
      // Our probe came back unsuccessful: try the next least neighbour.
      header.probe_index += 1;
      if (header.probe_index >= nbrs.size()) {
        throw std::invalid_argument(
            "SequentialSearchScheme: probes exhausted (destination farther "
            "than 2)");
      }
      header.phase = kProbing;
      return nbrs[header.probe_index];
    }
    default:
      throw std::logic_error("SequentialSearchScheme: bad header phase");
  }
}

std::vector<NodeId> SequentialSearchScheme::port_enumeration(NodeId u) const {
  // Model II: ports follow the sorted neighbour list.
  const auto nbrs = g_.neighbors(u);
  return {nbrs.begin(), nbrs.end()};
}

model::SpaceReport SequentialSearchScheme::space() const {
  model::SpaceReport report;
  // The constant algorithm: zero stored bits at every node.
  report.function_bits.assign(g_.node_count(), 0);
  return report;
}

}  // namespace optrt::schemes
