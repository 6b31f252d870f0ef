#include "schemes/hub.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "model/fastpath.hpp"
#include "schemes/errors.hpp"

namespace optrt::schemes {

class HubFastPath final : public model::FastPath {
 public:
  HubFastPath(std::size_t n, NodeId hub, model::AdjacencyBits adjacency,
              model::PackedSparseArray hub_table,
              std::vector<NodeId> toward_hub)
      : n_(n),
        hub_(hub),
        adjacency_(std::move(adjacency)),
        hub_table_(std::move(hub_table)),
        toward_hub_(std::move(toward_hub)) {}

  [[nodiscard]] std::string name() const override { return "hub"; }
  [[nodiscard]] std::size_t node_count() const override { return n_; }

  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label) const override {
    if (dest_label == u) {
      throw std::invalid_argument("HubScheme: routing to self");
    }
    if (adjacency_.has_edge(u, dest_label)) return dest_label;
    if (u == hub_) {
      return static_cast<NodeId>(hub_table_.value(dest_label));
    }
    if (adjacency_.has_edge(u, hub_)) return hub_;
    return toward_hub_[u];
  }

 private:
  std::size_t n_;
  NodeId hub_;
  model::AdjacencyBits adjacency_;
  model::PackedSparseArray hub_table_;
  std::vector<NodeId> toward_hub_;  // distance-2 nodes only
};

namespace {

/// Lemma 3 bound with c = 3: ranks below (c+3) log₂ n = 6 log₂ n.
unsigned default_rank_width(std::size_t n) {
  const auto bound = static_cast<std::uint64_t>(
      std::ceil(6.0 * std::log2(std::max<double>(static_cast<double>(n), 2.0))));
  return bitio::ceil_log2(std::max<std::uint64_t>(bound, 2));
}

/// The function bits of every node: the hub's compact table, nothing at
/// its neighbours, the rank of the least hub-adjacent neighbour elsewhere.
std::vector<bitio::BitVector> build_hub_bits(const graph::Graph& g, NodeId hub,
                                             unsigned rank_width) {
  std::vector<bitio::BitVector> bits(g.node_count());
  bits[hub] = build_compact_node(g, hub, CompactNodeOptions{}).bits;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (v == hub || g.has_edge(v, hub)) continue;  // O(1)-bit functions
    const auto nbrs = g.neighbors(v);
    const auto it = std::find_if(nbrs.begin(), nbrs.end(), [&](NodeId z) {
      return g.has_edge(z, hub);
    });
    if (it == nbrs.end()) {
      throw SchemeInapplicable("hub: node " + std::to_string(v) +
                               " farther than 2 from the hub");
    }
    const auto rank = static_cast<std::size_t>(it - nbrs.begin());
    if (rank >= (std::size_t{1} << rank_width)) {
      throw SchemeInapplicable(
          "hub: connecting rank exceeds the loglog-width field (graph not "
          "(c+3)log n-covered)");
    }
    bitio::BitWriter w;
    w.write_bits(rank, rank_width);
    bits[v] = w.take();
  }
  return bits;
}

}  // namespace

HubScheme::HubScheme(const graph::Graph& g, NodeId hub,
                     unsigned rank_width_override)
    : n_(g.node_count()),
      hub_(hub),
      rank_width_(rank_width_override != 0 ? rank_width_override
                                           : default_rank_width(n_)),
      function_bits_(build_hub_bits(g, hub_, rank_width_)) {
  compile(g);
}

HubScheme::HubScheme(const graph::Graph& g, NodeId hub, unsigned rank_width,
                     std::vector<bitio::BitVector> node_bits)
    : n_(g.node_count()),
      hub_(hub),
      rank_width_(rank_width),
      function_bits_(std::move(node_bits)) {
  compile(g);
}

void HubScheme::compile(const graph::Graph& g) {
  if (function_bits_.size() != n_) {
    throw std::invalid_argument("HubScheme: node count mismatch");
  }
  if (hub_ >= n_) {
    throw std::invalid_argument("HubScheme: hub id out of range");
  }
  if (rank_width_ > 64) {
    throw std::invalid_argument("HubScheme: rank width exceeds 64 bits");
  }
  const auto hub_nbrs = g.neighbors(hub_);
  model::PackedSparseArray hub_table = compile_compact_node(
      function_bits_[hub_], n_, hub_, CompactNodeOptions{},
      std::vector<NodeId>(hub_nbrs.begin(), hub_nbrs.end()));
  std::vector<NodeId> toward_hub(n_, static_cast<NodeId>(-1));
  for (NodeId v = 0; v < n_; ++v) {
    if (v == hub_) continue;
    bitio::BitReader r(function_bits_[v]);
    if (!g.has_edge(v, hub_)) {
      const auto rank = static_cast<std::size_t>(r.read_bits(rank_width_));
      const auto nbrs = g.neighbors(v);
      if (rank >= nbrs.size()) {
        throw std::invalid_argument("HubScheme: bad stored rank");
      }
      toward_hub[v] = nbrs[rank];
    }
    if (!r.exhausted()) {
      throw std::invalid_argument("HubScheme: trailing bits in a node table");
    }
  }
  fast_ = std::make_shared<HubFastPath>(n_, hub_, model::AdjacencyBits(g),
                                        std::move(hub_table),
                                        std::move(toward_hub));
  model::note_fastpath_compiled("hub");
}

NodeId HubScheme::next_hop(NodeId u, NodeId dest_label,
                           model::MessageHeader&) const {
  return fast_->next_hop(u, dest_label);
}

NodeId HubScheme::reference_next_hop(const graph::Graph& g, NodeId u,
                                     NodeId dest_label) const {
  if (dest_label == u) {
    throw std::invalid_argument("HubScheme: routing to self");
  }
  if (g.has_edge(u, dest_label)) return dest_label;  // free under II
  const auto nbrs = g.neighbors(u);
  if (u == hub_) {
    return decode_compact_node(function_bits_[u], n_, u, CompactNodeOptions{},
                               {nbrs.begin(), nbrs.end()})
        .next_of[dest_label];
  }
  if (g.has_edge(u, hub_)) return hub_;
  bitio::BitReader r(function_bits_[u]);
  return nbrs[r.read_bits(rank_width_)];
}

std::shared_ptr<const model::FastPath> HubScheme::compile_fast() const {
  return fast_;
}

model::SpaceReport HubScheme::space() const {
  return model::SpaceReport::of(function_bits_);
}

}  // namespace optrt::schemes
