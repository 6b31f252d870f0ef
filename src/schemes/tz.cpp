#include "schemes/tz.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "bitio/codes.hpp"
#include "graph/algorithms.hpp"
#include "model/fastpath.hpp"
#include "obs/metrics.hpp"
#include "schemes/errors.hpp"
#include "schemes/landmark_table.hpp"

namespace optrt::schemes {

std::size_t TzScheme::cluster_cap(std::size_t n) {
  if (n < 2) return 1;
  const double nd = static_cast<double>(n);
  return static_cast<std::size_t>(std::ceil(4.0 * std::sqrt(nd * std::log(nd))));
}

namespace {

/// The elected landmark set, ascending, and its nearest-landmark BFS.
struct TzSample {
  std::vector<NodeId> landmarks;
  NearestLandmarks nearest;
};

TzSample tz_sample_landmarks(const graph::Graph& g, const TzOptions& options) {
  // Sample A with per-node probability √(ln n / n), tilted by normalized
  // degree (p_v ∝ deg(v), E|A| unchanged): the stretch-3 argument only
  // needs l(v) to be v's nearest landmark, so A is a free choice, and on
  // power-law graphs degree-biased landmarks sit on most shortest paths
  // (Krioukov et al.) — on regular graphs the tilt is a no-op. Resample
  // while A is empty or a cluster breaks the 4√(n ln n) cap, keeping the
  // best sample seen so the election is total and deterministic in the
  // seed.
  const std::size_t n = g.node_count();
  const double p =
      n >= 2 ? std::min(1.0, std::sqrt(std::log(static_cast<double>(n)) /
                                       static_cast<double>(n)))
             : 1.0;
  const double avg_degree =
      n > 0 ? 2.0 * static_cast<double>(g.edge_count()) /
                  static_cast<double>(n)
            : 0.0;
  std::vector<double> p_node(n, p);
  if (avg_degree > 0.0) {
    for (NodeId v = 0; v < n; ++v) {
      p_node[v] =
          std::min(1.0, p * static_cast<double>(g.degree(v)) / avg_degree);
    }
  }
  const std::size_t cap = TzScheme::cluster_cap(n);
  graph::Rng rng(options.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  TzSample best;
  std::size_t best_max = std::numeric_limits<std::size_t>::max();
  std::uint64_t resamples = 0;
  const std::size_t attempts = std::max<std::size_t>(options.max_resamples, 1);
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    std::vector<NodeId> sample;
    for (NodeId v = 0; v < n; ++v) {
      if (unit(rng) < p_node[v]) sample.push_back(v);
    }
    if (sample.empty()) {
      ++resamples;
      continue;
    }
    NearestLandmarks nearest = nearest_landmarks(g, sample);
    ClusterBfs cluster_bfs(g, nearest.distance);
    std::size_t max_cluster = 0;
    for (NodeId w = 0; w < n; ++w) {
      max_cluster = std::max(max_cluster, cluster_bfs(w).size());
    }
    if (max_cluster < best_max) {
      best = {std::move(sample), std::move(nearest)};
      best_max = max_cluster;
    }
    if (max_cluster <= cap) break;
    ++resamples;
  }
  if (best.landmarks.empty()) {  // degenerate fallback: node 0
    best.landmarks.push_back(0);
    best.nearest = nearest_landmarks(g, best.landmarks);
  }
  obs::counter("schemes.tz.resamples").inc(resamples);
  return best;  // landmarks ascending by construction
}

}  // namespace

class TzFastPath final : public model::DirectBatchFastPath<TzFastPath> {
 public:
  TzFastPath(LandmarkTables tables, std::vector<graph::PortId> exit_port)
      : t_(std::move(tables)), exit_port_(std::move(exit_port)) {}

  [[nodiscard]] std::string name() const override { return "tz"; }
  [[nodiscard]] std::size_t node_count() const override {
    return t_.landmark_of.size();
  }

  // The one compiled form that still branches on membership (see
  // model/fastpath.hpp): TZ clusters are small on the Internet-like graphs
  // it serves, so the branch predicts well, and it routes uniform pairs as
  // fast as pairs grouped by adjacency. The serve-bulk workload runs it.
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label) const override {
    const NodeId v = dest_label;
    if (v == u) throw std::invalid_argument("TzScheme: routing to self");
    const auto& cluster = t_.listed[u];
    if (cluster.contains(v)) return t_.hop(u, cluster.value(v));
    if (u == t_.landmark_of[v]) return t_.hop(u, exit_port_[v]);
    return t_.hop(u, t_.port_toward_landmark(u, v));
  }

  [[nodiscard]] const LandmarkTables& tables() const { return t_; }
  /// Label part: at l(v), the port toward v.
  [[nodiscard]] graph::PortId exit_port(NodeId v) const {
    return exit_port_[v];
  }

 private:
  LandmarkTables t_;
  std::vector<graph::PortId> exit_port_;
};

TzScheme::TzScheme(const graph::Graph& g, Options options)
    : n_(g.node_count()) {
  if (!graph::is_connected(g)) {
    throw SchemeInapplicable("tz: graph disconnected");
  }
  TzSample sample = tz_sample_landmarks(g, options);
  landmarks_ = std::move(sample.landmarks);
  std::vector<bitio::BitVector> bits =
      build_landmark_tables(g, landmarks_, sample.nearest.distance);
  compile(g, std::move(bits), std::move(sample.nearest));
}

TzScheme::TzScheme(const graph::Graph& g, std::vector<NodeId> landmarks,
                   std::vector<bitio::BitVector> node_bits)
    : n_(g.node_count()), landmarks_(std::move(landmarks)) {
  if (node_bits.size() != n_ || landmarks_.empty()) {
    throw std::invalid_argument("TzScheme: bad serialized state");
  }
  for (std::size_t i = 0; i < landmarks_.size(); ++i) {
    if (landmarks_[i] >= n_ ||
        (i > 0 && landmarks_[i] <= landmarks_[i - 1])) {
      throw std::invalid_argument("TzScheme: bad landmark set");
    }
  }
  compile(g, std::move(node_bits), nearest_landmarks(g, landmarks_));
}

void TzScheme::compile(const graph::Graph& g,
                       std::vector<bitio::BitVector> node_bits,
                       NearestLandmarks nearest) {
  // The label tables come from the landmark BFS: l(v), v's nearest
  // landmark (least id on ties — landmarks_ is sorted), and the exit port
  // at l(v) toward v (its least shortest-path successor), the second and
  // third components of the charged (v, l(v), port) label.
  for (NodeId v = 0; v < n_; ++v) {
    if (nearest.distance[v] == graph::kUnreachable) {
      throw std::invalid_argument("TzScheme: node " + std::to_string(v) +
                                  " is unreachable from every landmark");
    }
  }
  function_bits_ = std::move(node_bits);
  LandmarkTables tables = compile_landmark_tables(
      g, landmarks_, nearest, function_bits_, "TzScheme", "cluster");
  auto cluster_sizes = obs::histogram("schemes.tz.cluster_size",
                                      obs::hop_buckets());
  for (const auto& cluster : tables.listed) {
    cluster_sizes.observe(cluster.member_count());
  }
  fast_ = std::make_shared<TzFastPath>(std::move(tables),
                                       std::move(nearest.exit_port));
  model::note_fastpath_compiled("tz");
  obs::counter("schemes.tz.built").inc();
}

NodeId TzScheme::next_hop(NodeId u, NodeId dest_label,
                          model::MessageHeader&) const {
  return fast_->next_hop(u, dest_label);
}

NodeId TzScheme::reference_next_hop(const graph::Graph& g, NodeId u,
                                    NodeId dest_label) const {
  // The charged label is (v, l(v), exit port at l(v)); numerically we
  // receive v and look the rest up from the label table the scheme itself
  // published.
  const NodeId v = dest_label;
  if (v == u) throw std::invalid_argument("TzScheme: routing to self");
  const auto nbrs = g.neighbors(u);
  if (const auto port = read_listed_port(function_bits_[u], n_, nbrs.size(),
                                         landmarks_.size(), v)) {
    return nbrs[*port];
  }
  const LandmarkTables& t = fast_->tables();
  const NodeId l = t.landmark_of[v];
  if (u == l) return nbrs[fast_->exit_port(v)];
  return nbrs[read_landmark_port(function_bits_[u], nbrs.size(),
                                 t.landmark_index[l])];
}

std::shared_ptr<const model::FastPath> TzScheme::compile_fast() const {
  return fast_;
}

std::vector<NodeId> TzScheme::port_enumeration(NodeId u) const {
  const auto ports = fast_->tables().graph.neighbors(u);
  return {ports.begin(), ports.end()};
}

NodeId TzScheme::landmark_of(NodeId v) const {
  return fast_->tables().landmark_of[v];
}

graph::PortId TzScheme::exit_port(NodeId v) const {
  return fast_->exit_port(v);
}

std::size_t TzScheme::cluster_size(NodeId w) const {
  return fast_->tables().listed[w].member_count();
}

std::size_t TzScheme::bunch_size(NodeId v) const {
  std::size_t size = landmarks_.size();
  for (const auto& cluster : fast_->tables().listed) {
    size += cluster.contains(v) ? 1 : 0;
  }
  return size;
}

model::SpaceReport TzScheme::space() const {
  // Model γ: the (v, l(v), exit port) labels are charged — 2·⌈log n⌉ bits
  // plus the exit port at l(v)'s width, per node.
  const LandmarkTables& t = fast_->tables();
  std::size_t label_bits = 0;
  for (NodeId v = 0; v < n_; ++v) {
    label_bits += 2 * bitio::id_width(n_) +
                  bitio::port_width(t.graph.degree(t.landmark_of[v]));
  }
  return model::SpaceReport::of(function_bits_, label_bits);
}

}  // namespace optrt::schemes
