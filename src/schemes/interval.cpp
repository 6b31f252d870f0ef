#include "schemes/interval.hpp"

#include <algorithm>
#include <stdexcept>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "graph/algorithms.hpp"
#include "schemes/errors.hpp"

namespace optrt::schemes {

IntervalRoutingScheme::IntervalRoutingScheme(const graph::Graph& g, NodeId root)
    : n_(g.node_count()), labeling_(graph::Labeling::identity(n_)) {
  if (!graph::is_connected(g)) {
    throw SchemeInapplicable("interval-tree: graph disconnected");
  }

  // BFS spanning tree.
  std::vector<NodeId> parent(n_, static_cast<NodeId>(-1));
  std::vector<std::vector<NodeId>> children(n_);
  {
    std::vector<bool> seen(n_, false);
    std::vector<NodeId> frontier{root};
    seen[root] = true;
    parent[root] = root;
    while (!frontier.empty()) {
      std::vector<NodeId> next;
      for (NodeId u : frontier) {
        for (NodeId v : g.neighbors(u)) {
          if (!seen[v]) {
            seen[v] = true;
            parent[v] = u;
            children[u].push_back(v);
            next.push_back(v);
          }
        }
      }
      frontier.swap(next);
    }
  }

  // DFS preorder labels; subtree of u covers [pre[u], last[u]].
  std::vector<NodeId> pre(n_, 0), last(n_, 0);
  {
    NodeId counter = 0;
    // Iterative DFS with post-processing for `last`.
    std::vector<std::pair<NodeId, std::size_t>> stack{{root, 0}};
    pre[root] = counter++;
    while (!stack.empty()) {
      auto& [u, idx] = stack.back();
      if (idx < children[u].size()) {
        const NodeId c = children[u][idx++];
        pre[c] = counter++;
        stack.emplace_back(c, 0);
      } else {
        last[u] = children[u].empty()
                      ? pre[u]
                      : last[children[u].back()];
        stack.pop_back();
      }
    }
  }

  std::vector<NodeId> label_of_node(n_);
  for (NodeId u = 0; u < n_; ++u) label_of_node[u] = pre[u];
  labeling_ = graph::Labeling::permutation(std::move(label_of_node));

  // Serialize per node: parent id, child count, then (child id, lo, hi)
  // label triples.
  const unsigned width = bitio::ceil_log2(std::max<std::size_t>(n_, 2));
  function_bits_.resize(n_);
  for (NodeId u = 0; u < n_; ++u) {
    bitio::BitWriter w;
    w.write_bits(parent[u], width);
    w.write_bits(children[u].size(), bitio::ceil_log2_plus1(n_));
    for (NodeId c : children[u]) {
      w.write_bits(c, width);
      w.write_bits(pre[c], width);
      w.write_bits(last[c], width);
    }
    function_bits_[u] = w.take();
  }
}

NodeId IntervalRoutingScheme::next_hop(NodeId u, NodeId dest_label,
                                       model::MessageHeader&) const {
  if (dest_label == labeling_.label_of(u)) {
    throw std::invalid_argument("IntervalRoutingScheme: routing to self");
  }
  const unsigned width = bitio::ceil_log2(std::max<std::size_t>(n_, 2));
  bitio::BitReader r(function_bits_[u]);
  const auto parent = static_cast<NodeId>(r.read_bits(width));
  const auto count =
      static_cast<std::size_t>(r.read_bits(bitio::ceil_log2_plus1(n_)));
  for (std::size_t k = 0; k < count; ++k) {
    const auto child = static_cast<NodeId>(r.read_bits(width));
    const auto lo = r.read_bits(width);
    const auto hi = r.read_bits(width);
    if (lo <= dest_label && dest_label <= hi) return child;
  }
  return parent;
}

model::SpaceReport IntervalRoutingScheme::space() const {
  return model::SpaceReport::of(function_bits_);
}

}  // namespace optrt::schemes
