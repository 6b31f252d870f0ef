#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace optrt::graph {

Graph::Graph(std::size_t n)
    : n_(n),
      words_per_row_((n + 63) / 64),
      matrix_(n * words_per_row_, 0),
      adjacency_(n) {}

void Graph::add_edge(NodeId u, NodeId v) {
  if (u >= n_ || v >= n_) throw std::invalid_argument("add_edge: node out of range");
  if (u == v) throw std::invalid_argument("add_edge: self-loop");
  if (has_edge(u, v)) throw std::invalid_argument("add_edge: duplicate edge");
  matrix_[static_cast<std::size_t>(u) * words_per_row_ + (v >> 6)] |=
      std::uint64_t{1} << (v & 63);
  matrix_[static_cast<std::size_t>(v) * words_per_row_ + (u >> 6)] |=
      std::uint64_t{1} << (u & 63);
  // Keep lists sorted: generators mostly add edges in increasing order, so
  // the common case is an O(1) append.
  auto insert_sorted = [](std::vector<NodeId>& list, NodeId x) {
    if (list.empty() || list.back() < x) {
      list.push_back(x);
    } else {
      list.insert(std::lower_bound(list.begin(), list.end(), x), x);
    }
  };
  insert_sorted(adjacency_[u], v);
  insert_sorted(adjacency_[v], u);
  ++m_;
}

void Graph::remove_edge(NodeId u, NodeId v) {
  if (u >= n_ || v >= n_) {
    throw std::invalid_argument("remove_edge: node out of range");
  }
  if (u == v) throw std::invalid_argument("remove_edge: self-loop");
  if (!has_edge(u, v)) throw std::invalid_argument("remove_edge: not an edge");
  matrix_[static_cast<std::size_t>(u) * words_per_row_ + (v >> 6)] &=
      ~(std::uint64_t{1} << (v & 63));
  matrix_[static_cast<std::size_t>(v) * words_per_row_ + (u >> 6)] &=
      ~(std::uint64_t{1} << (u & 63));
  auto erase_sorted = [](std::vector<NodeId>& list, NodeId x) {
    list.erase(std::lower_bound(list.begin(), list.end(), x));
  };
  erase_sorted(adjacency_[u], v);
  erase_sorted(adjacency_[v], u);
  --m_;
}

std::size_t Graph::min_degree() const noexcept {
  std::size_t best = n_ == 0 ? 0 : adjacency_[0].size();
  for (const auto& list : adjacency_) best = std::min(best, list.size());
  return best;
}

std::size_t Graph::max_degree() const noexcept {
  std::size_t best = 0;
  for (const auto& list : adjacency_) best = std::max(best, list.size());
  return best;
}

}  // namespace optrt::graph
