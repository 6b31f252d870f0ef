#include "schemes/tz.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "bitio/codes.hpp"
#include "graph/algorithms.hpp"
#include "model/fastpath.hpp"
#include "obs/metrics.hpp"
#include "schemes/errors.hpp"
#include "schemes/landmark_table.hpp"

namespace optrt::schemes {

namespace {

/// d(v, A) for every v, against a sorted landmark set.
std::vector<std::uint32_t> dist_to_set(const graph::DistanceMatrix& dist,
                                       std::size_t n,
                                       const std::vector<NodeId>& set) {
  std::vector<std::uint32_t> dva(n, graph::kUnreachable);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId l : set) dva[v] = std::min(dva[v], dist.at(v, l));
  }
  return dva;
}

}  // namespace

std::size_t TzScheme::cluster_cap(std::size_t n) {
  if (n < 2) return 1;
  const double nd = static_cast<double>(n);
  return static_cast<std::size_t>(std::ceil(4.0 * std::sqrt(nd * std::log(nd))));
}

std::vector<NodeId> tz_sample_landmarks(const graph::Graph& g,
                                        const graph::DistanceMatrix& dist,
                                        const TzOptions& options) {
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
  std::vector<NodeId> best;
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
    const auto dva = dist_to_set(dist, n, sample);
    std::size_t max_cluster = 0;
    for (NodeId w = 0; w < n; ++w) {
      std::size_t size = 0;
      for (NodeId v = 0; v < n; ++v) {
        if (v != w && dist.at(w, v) < dva[v]) ++size;
      }
      max_cluster = std::max(max_cluster, size);
    }
    if (max_cluster < best_max) {
      best = std::move(sample);
      best_max = max_cluster;
    }
    if (max_cluster <= cap) break;
    ++resamples;
  }
  if (best.empty()) best.push_back(0);  // degenerate fallback: node 0
  obs::counter("schemes.tz.resamples").inc(resamples);
  return best;  // ascending by construction
}

bitio::BitVector tz_build_node_bits(const graph::Graph& g,
                                    const graph::DistanceMatrix& dist,
                                    const graph::PortAssignment& ports,
                                    const std::vector<NodeId>& landmarks,
                                    const std::vector<std::uint32_t>& dva,
                                    NodeId w) {
  // Cluster C(w) = {v : d(w, v) < d(v, A)}, strictly.
  return build_landmark_node_bits(g, dist, ports, landmarks, dva, w);
}

class TzFastPath final : public model::FastPath {
 public:
  TzFastPath(LandmarkTables tables, std::vector<graph::PortId> exit_port)
      : t_(std::move(tables)), exit_port_(std::move(exit_port)) {}

  [[nodiscard]] std::string name() const override { return "tz"; }
  [[nodiscard]] std::size_t node_count() const override {
    return t_.landmark_of.size();
  }

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
  const auto dist_cached = graph::DistanceCache::global().get(g);
  const graph::DistanceMatrix& dist = *dist_cached;
  landmarks_ = tz_sample_landmarks(g, dist, options);
  const auto dva = dist_to_set(dist, n_, landmarks_);
  const auto ports = graph::PortAssignment::sorted(g);
  std::vector<bitio::BitVector> bits(n_);
  for (NodeId w = 0; w < n_; ++w) {
    bits[w] = tz_build_node_bits(g, dist, ports, landmarks_, dva, w);
  }
  compile(g, std::move(bits), dist);
}

TzScheme::TzScheme(const graph::Graph& g, std::vector<NodeId> landmarks,
                   std::vector<bitio::BitVector> node_bits)
    : n_(g.node_count()), landmarks_(std::move(landmarks)) {
  // Nearest landmarks are a deterministic function of the graph.
  const auto dist_cached = graph::DistanceCache::global().get(g);
  compile(g, std::move(node_bits), *dist_cached);
}

TzScheme::TzScheme(const graph::Graph& g, std::vector<NodeId> landmarks,
                   std::vector<bitio::BitVector> node_bits,
                   const graph::DistanceMatrix& dist)
    : n_(g.node_count()), landmarks_(std::move(landmarks)) {
  compile(g, std::move(node_bits), dist);
}

void TzScheme::compile(const graph::Graph& g,
                       std::vector<bitio::BitVector> node_bits,
                       const graph::DistanceMatrix& dist) {
  if (node_bits.size() != n_ || landmarks_.empty()) {
    throw std::invalid_argument("TzScheme: bad serialized state");
  }
  for (std::size_t i = 0; i < landmarks_.size(); ++i) {
    if (landmarks_[i] >= n_ ||
        (i > 0 && landmarks_[i] <= landmarks_[i - 1])) {
      throw std::invalid_argument("TzScheme: bad landmark set");
    }
  }
  // Nearest landmark per node (least id on ties — landmarks_ is sorted).
  std::vector<NodeId> landmark_of(n_, landmarks_[0]);
  for (NodeId v = 0; v < n_; ++v) {
    std::uint32_t best = graph::kUnreachable;
    for (NodeId l : landmarks_) {
      if (dist.at(v, l) < best) {
        best = dist.at(v, l);
        landmark_of[v] = l;
      }
    }
  }
  function_bits_ = std::move(node_bits);
  LandmarkTables tables =
      compile_landmark_tables(g, landmarks_, std::move(landmark_of),
                              function_bits_, "TzScheme", "cluster");
  // Label exit ports: at l(v), the port toward v (least shortest-path
  // successor) — the third component of the charged (v, l(v), port) label.
  std::vector<graph::PortId> exit_port(n_, 0);
  for (NodeId v = 0; v < n_; ++v) {
    const NodeId l = tables.landmark_of[v];
    if (l == v) continue;
    const NodeId succ = graph::shortest_path_successors(g, dist, l, v).front();
    exit_port[v] = static_cast<graph::PortId>(tables.csr.arc_index(l, succ) -
                                              tables.csr.arc_begin(l));
  }
  auto cluster_sizes = obs::histogram("schemes.tz.cluster_size",
                                      obs::hop_buckets());
  for (const auto& cluster : tables.listed) {
    cluster_sizes.observe(cluster.member_count());
  }
  fast_ = std::make_shared<TzFastPath>(std::move(tables), std::move(exit_port));
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
  const auto ports = fast_->tables().csr.neighbors(u);
  return {ports.begin(), ports.end()};
}

NodeId TzScheme::landmark_of(NodeId v) const {
  return fast_->tables().landmark_of[v];
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
  const unsigned id_width = bitio::ceil_log2(std::max<std::size_t>(n_, 2));
  const LandmarkTables& t = fast_->tables();
  std::size_t label_bits = 0;
  for (NodeId v = 0; v < n_; ++v) {
    label_bits += 2 * id_width + bitio::ceil_log2(std::max<std::size_t>(
                                     t.csr.degree(t.landmark_of[v]), 1));
  }
  return model::SpaceReport::of(function_bits_, label_bits);
}

}  // namespace optrt::schemes
