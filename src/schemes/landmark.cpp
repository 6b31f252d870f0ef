#include "schemes/landmark.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "bitio/codes.hpp"
#include "graph/algorithms.hpp"
#include "model/fastpath.hpp"
#include "schemes/errors.hpp"
#include "schemes/landmark_table.hpp"

namespace optrt::schemes {

class LandmarkFastPath final
    : public model::DirectBatchFastPath<LandmarkFastPath> {
 public:
  explicit LandmarkFastPath(LandmarkTables tables)
      : t_(std::move(tables)) {}

  [[nodiscard]] std::string name() const override { return "landmark"; }
  [[nodiscard]] std::size_t node_count() const override {
    return t_.landmark_of.size();
  }

  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label) const override {
    const NodeId v = dest_label;
    if (v == u) throw std::invalid_argument("LandmarkScheme: routing to self");
    // The vicinity port when v is listed, else the port toward l(v).
    return t_.hop(u, t_.listed[u].value_or(v, t_.port_toward_landmark(u, v)));
  }

  [[nodiscard]] const LandmarkTables& tables() const { return t_; }

 private:
  LandmarkTables t_;
};

LandmarkScheme::LandmarkScheme(const graph::Graph& g, Options options)
    : n_(g.node_count()) {
  if (!graph::is_connected(g)) {
    throw SchemeInapplicable("landmark: graph disconnected");
  }
  std::size_t count = options.landmark_count;
  if (count == 0) {
    count = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(n_))));
  }
  count = std::min(count, n_);

  // Sample landmarks without replacement.
  std::vector<NodeId> all(n_);
  std::iota(all.begin(), all.end(), 0);
  graph::Rng rng(options.seed);
  std::shuffle(all.begin(), all.end(), rng);
  landmarks_.assign(all.begin(),
                    all.begin() + static_cast<std::ptrdiff_t>(count));
  std::sort(landmarks_.begin(), landmarks_.end());

  // Vicinity C(w) = {v : d(w, v) ≤ d(v, l(v))}, i.e. d(w, v) < d(v, A) + 1.
  std::vector<std::uint32_t> radius = nearest_landmarks(g, landmarks_).distance;
  for (std::uint32_t& r : radius) ++r;
  compile(g, build_landmark_tables(g, landmarks_, radius));
}

LandmarkScheme::LandmarkScheme(const graph::Graph& g,
                               std::vector<NodeId> landmarks,
                               std::vector<bitio::BitVector> node_bits)
    : n_(g.node_count()), landmarks_(std::move(landmarks)) {
  compile(g, std::move(node_bits));
}

void LandmarkScheme::compile(const graph::Graph& g,
                             std::vector<bitio::BitVector> node_bits) {
  if (node_bits.size() != n_ || landmarks_.empty()) {
    throw std::invalid_argument("LandmarkScheme: bad serialized state");
  }
  for (NodeId l : landmarks_) {
    if (l >= n_) throw std::invalid_argument("LandmarkScheme: bad landmark id");
  }
  // Nearest landmarks are a deterministic function of the graph: one
  // multi-source BFS gives every node the first landmark (in stored order)
  // at its least distance, and landmarks_[0] when none reaches it.
  function_bits_ = std::move(node_bits);
  fast_ = std::make_shared<LandmarkFastPath>(compile_landmark_tables(
      g, landmarks_, nearest_landmarks(g, landmarks_), function_bits_,
      "LandmarkScheme", "vicinity"));
  model::note_fastpath_compiled("landmark");
}

NodeId LandmarkScheme::next_hop(NodeId u, NodeId dest_label,
                                model::MessageHeader&) const {
  return fast_->next_hop(u, dest_label);
}

NodeId LandmarkScheme::reference_next_hop(const graph::Graph& g, NodeId u,
                                          NodeId dest_label) const {
  // The charged label is (v, l(v)); numerically we receive v and look up
  // l(v) from the label table the scheme itself published.
  const NodeId v = dest_label;
  if (v == u) throw std::invalid_argument("LandmarkScheme: routing to self");
  const auto nbrs = g.neighbors(u);
  if (const auto port = read_listed_port(function_bits_[u], n_, nbrs.size(),
                                         landmarks_.size(), v)) {
    return nbrs[*port];
  }
  const LandmarkTables& t = fast_->tables();
  return nbrs[read_landmark_port(function_bits_[u], nbrs.size(),
                                 t.landmark_index[t.landmark_of[v]])];
}

std::shared_ptr<const model::FastPath> LandmarkScheme::compile_fast() const {
  return fast_;
}

NodeId LandmarkScheme::landmark_of(NodeId v) const {
  return fast_->tables().landmark_of[v];
}

std::size_t LandmarkScheme::vicinity_size(NodeId w) const {
  return fast_->tables().listed[w].member_count();
}

model::SpaceReport LandmarkScheme::space() const {
  // Model γ: the (v, l(v)) labels are charged — 2·⌈log n⌉ bits per node.
  return model::SpaceReport::of(function_bits_, n_ * 2 * bitio::id_width(n_));
}

}  // namespace optrt::schemes
