#include "graph/graph.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace optrt::graph {

namespace {

void check_pair(const char* op, std::size_t n, NodeId u, NodeId v) {
  if (u >= n || v >= n) {
    throw std::invalid_argument(std::string(op) + ": node out of range");
  }
  if (u == v) throw std::invalid_argument(std::string(op) + ": self-loop");
}

}  // namespace

Graph::CsrAdjacency::CsrAdjacency(std::size_t n, std::span<const Edge> edges)
    : offsets_(n + 1, 0), neighbors_(2 * edges.size()) {
  for (const auto& [u, v] : edges) {
    ++offsets_[u + 1];
    ++offsets_[v + 1];
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  std::vector<std::size_t> next(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [u, v] : edges) {
    neighbors_[next[u]++] = v;
    neighbors_[next[v]++] = u;
  }
  // A lexicographic (u < v) edge list — every generator and decoder emits
  // one — fills each slice already sorted.
  for (std::size_t u = 0; u < n; ++u) {
    const auto begin = neighbors_.begin() + offsets_[u];
    const auto end = neighbors_.begin() + offsets_[u + 1];
    if (!std::is_sorted(begin, end)) std::sort(begin, end);
  }
}

std::size_t Graph::CsrAdjacency::arc_index(NodeId u, NodeId v) const noexcept {
  const auto begin = neighbors_.begin() + offsets_[u];
  const auto end = neighbors_.begin() + offsets_[u + 1];
  const auto it = std::lower_bound(begin, end, v);
  if (it == end || *it != v) return kNoArc;
  return static_cast<std::size_t>(it - neighbors_.begin());
}

void Graph::CsrAdjacency::insert(NodeId u, NodeId v) {
  for (const auto& [from, to] : {Edge{u, v}, Edge{v, u}}) {
    const auto slice = neighbors(from);
    const auto at = offsets_[from] + static_cast<std::size_t>(
        std::lower_bound(slice.begin(), slice.end(), to) - slice.begin());
    neighbors_.insert(neighbors_.begin() + static_cast<std::ptrdiff_t>(at), to);
    for (std::size_t w = from + 1; w < offsets_.size(); ++w) ++offsets_[w];
  }
}

void Graph::CsrAdjacency::erase(NodeId u, NodeId v) {
  for (const auto& [from, to] : {Edge{u, v}, Edge{v, u}}) {
    neighbors_.erase(neighbors_.begin() +
                     static_cast<std::ptrdiff_t>(arc_index(from, to)));
    for (std::size_t w = from + 1; w < offsets_.size(); ++w) --offsets_[w];
  }
}

Graph::Graph(std::size_t n, std::span<const Edge> edges) {
  // The bit rows reject what add_edge rejects before the CSR builder,
  // whose precondition they establish, runs.
  AdjacencyBits bits(n);
  for (const auto& [u, v] : edges) {
    check_pair("Graph", n, u, v);
    if (bits.has_edge(u, v)) {
      throw std::invalid_argument("Graph: duplicate edge");
    }
    bits.set(u, v, true);
  }
  store_ =
      std::make_shared<Store>(Store{std::move(bits), CsrAdjacency(n, edges)});
}

Graph::Store& Graph::own() {
  if (store_.use_count() != 1) store_ = std::make_shared<Store>(*store_);
  return *store_;
}

void Graph::add_edge(NodeId u, NodeId v) {
  check_pair("add_edge", node_count(), u, v);
  if (has_edge(u, v)) throw std::invalid_argument("add_edge: duplicate edge");
  Store& store = own();
  store.bits.set(u, v, true);
  store.csr.insert(u, v);
}

void Graph::remove_edge(NodeId u, NodeId v) {
  check_pair("remove_edge", node_count(), u, v);
  if (!has_edge(u, v)) throw std::invalid_argument("remove_edge: not an edge");
  Store& store = own();
  store.bits.set(u, v, false);
  store.csr.erase(u, v);
}

std::size_t Graph::min_degree() const noexcept {
  const std::size_t n = node_count();
  std::size_t best = n == 0 ? 0 : degree(0);
  for (NodeId u = 0; u < n; ++u) best = std::min(best, degree(u));
  return best;
}

std::size_t Graph::max_degree() const noexcept {
  std::size_t best = 0;
  for (NodeId u = 0; u < node_count(); ++u) best = std::max(best, degree(u));
  return best;
}

}  // namespace optrt::graph
