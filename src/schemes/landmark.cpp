#include "schemes/landmark.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "model/fastpath.hpp"
#include "schemes/errors.hpp"

namespace optrt::schemes {

LandmarkScheme::LandmarkScheme(const graph::Graph& g, Options options)
    : n_(g.node_count()), ports_(graph::PortAssignment::sorted(g)) {
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
  {
    std::vector<NodeId> all(n_);
    std::iota(all.begin(), all.end(), 0);
    graph::Rng rng(options.seed);
    std::shuffle(all.begin(), all.end(), rng);
    landmarks_.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(count));
    std::sort(landmarks_.begin(), landmarks_.end());
  }
  landmark_index_.assign(n_, 0);
  for (std::uint32_t i = 0; i < landmarks_.size(); ++i) {
    landmark_index_[landmarks_[i]] = i;
  }

  const auto dist_cached = graph::DistanceCache::global().get(g);
  const graph::DistanceMatrix& dist = *dist_cached;

  // Nearest landmark per node (least id on ties).
  landmark_of_.assign(n_, landmarks_[0]);
  for (NodeId v = 0; v < n_; ++v) {
    std::uint32_t best = graph::kUnreachable;
    for (NodeId l : landmarks_) {
      if (dist.at(v, l) < best) {
        best = dist.at(v, l);
        landmark_of_[v] = l;
      }
    }
  }

  // Build and serialize per-node tables.
  const unsigned id_width = bitio::ceil_log2(std::max<std::size_t>(n_, 2));
  function_bits_.resize(n_);
  decoded_.resize(n_);
  for (NodeId w = 0; w < n_; ++w) {
    const unsigned port_width =
        bitio::ceil_log2(std::max<std::size_t>(g.degree(w), 1));
    bitio::BitWriter out;
    // (a) next hop toward every landmark (own landmark entry unused at a
    // landmark itself; store 0).
    for (NodeId l : landmarks_) {
      graph::PortId port = 0;
      if (l != w) {
        const auto succ = graph::shortest_path_successors(g, dist, w, l);
        port = ports_.port_of(w, succ.front());
      }
      out.write_bits(port, port_width);
    }
    // (b) vicinity table: v with d(w,v) ≤ d(v, l(v)).
    std::vector<NodeId> vicinity;
    for (NodeId v = 0; v < n_; ++v) {
      if (v != w && dist.at(w, v) <= dist.at(v, landmark_of_[v])) {
        vicinity.push_back(v);
      }
    }
    out.write_bits(vicinity.size(), bitio::ceil_log2_plus1(n_));
    for (NodeId v : vicinity) {
      const auto succ = graph::shortest_path_successors(g, dist, w, v);
      out.write_bits(v, id_width);
      out.write_bits(ports_.port_of(w, succ.front()), port_width);
    }
    function_bits_[w] = out.take();

    // Honest read-back.
    bitio::BitReader r(function_bits_[w]);
    DecodedNode& node = decoded_[w];
    node.landmark_port.resize(landmarks_.size());
    for (auto& p : node.landmark_port) {
      p = static_cast<graph::PortId>(r.read_bits(port_width));
    }
    const auto vic =
        static_cast<std::size_t>(r.read_bits(bitio::ceil_log2_plus1(n_)));
    node.vicinity_ids.resize(vic);
    node.vicinity_port.resize(vic);
    for (std::size_t i = 0; i < vic; ++i) {
      node.vicinity_ids[i] = static_cast<NodeId>(r.read_bits(id_width));
      node.vicinity_port[i] =
          static_cast<graph::PortId>(r.read_bits(port_width));
    }
  }
}

LandmarkScheme::LandmarkScheme(const graph::Graph& g,
                               std::vector<NodeId> landmarks,
                               std::vector<bitio::BitVector> node_bits)
    : n_(g.node_count()),
      ports_(graph::PortAssignment::sorted(g)),
      landmarks_(std::move(landmarks)) {
  if (node_bits.size() != n_ || landmarks_.empty()) {
    throw std::invalid_argument("LandmarkScheme: bad serialized state");
  }
  landmark_index_.assign(n_, 0);
  for (std::uint32_t i = 0; i < landmarks_.size(); ++i) {
    if (landmarks_[i] >= n_) {
      throw std::invalid_argument("LandmarkScheme: bad landmark id");
    }
    landmark_index_[landmarks_[i]] = i;
  }
  // Nearest landmarks are a deterministic function of the graph: one BFS
  // per landmark, visited in stored order with a strict <, so every node
  // keeps the first landmark (in that order) at its least distance.
  landmark_of_.assign(n_, landmarks_[0]);
  std::vector<std::uint32_t> best(n_, graph::kUnreachable);
  for (NodeId l : landmarks_) {
    const auto dist = graph::bfs_distances(g, l);
    for (NodeId v = 0; v < n_; ++v) {
      if (dist[v] < best[v]) {
        best[v] = dist[v];
        landmark_of_[v] = l;
      }
    }
  }
  const unsigned id_width = bitio::ceil_log2(std::max<std::size_t>(n_, 2));
  function_bits_ = std::move(node_bits);
  decoded_.resize(n_);
  for (NodeId w = 0; w < n_; ++w) {
    const unsigned port_width =
        bitio::ceil_log2(std::max<std::size_t>(g.degree(w), 1));
    const std::size_t degree = std::max<std::size_t>(g.degree(w), 1);
    bitio::BitReader r(function_bits_[w]);
    DecodedNode& node = decoded_[w];
    node.landmark_port.resize(landmarks_.size());
    for (auto& p : node.landmark_port) {
      p = static_cast<graph::PortId>(r.read_bits(port_width));
      if (p >= degree) {
        throw std::invalid_argument(
            "LandmarkScheme: stored port exceeds the node degree");
      }
    }
    const auto vic =
        static_cast<std::size_t>(r.read_bits(bitio::ceil_log2_plus1(n_)));
    if (vic > n_) {
      throw std::invalid_argument("LandmarkScheme: vicinity larger than n");
    }
    node.vicinity_ids.resize(vic);
    node.vicinity_port.resize(vic);
    for (std::size_t i = 0; i < vic; ++i) {
      node.vicinity_ids[i] = static_cast<NodeId>(r.read_bits(id_width));
      node.vicinity_port[i] =
          static_cast<graph::PortId>(r.read_bits(port_width));
      // next_hop binary-searches the vicinity and indexes ports unchecked;
      // both invariants must hold before the table is ever queried.
      if (node.vicinity_ids[i] >= n_ ||
          (i > 0 && node.vicinity_ids[i] <= node.vicinity_ids[i - 1])) {
        throw std::invalid_argument("LandmarkScheme: bad vicinity table");
      }
      if (node.vicinity_port[i] >= degree) {
        throw std::invalid_argument(
            "LandmarkScheme: stored port exceeds the node degree");
      }
    }
    if (!r.exhausted()) {
      throw std::invalid_argument(
          "LandmarkScheme: trailing bits in a node table");
    }
  }
}

NodeId LandmarkScheme::next_hop(NodeId u, NodeId dest_label,
                                model::MessageHeader&) const {
  // The charged label is (v, l(v)); numerically we receive v and look up
  // l(v) from the label table the scheme itself published.
  const NodeId v = dest_label;
  if (v == u) throw std::invalid_argument("LandmarkScheme: routing to self");
  const DecodedNode& node = decoded_[u];
  const auto it = std::lower_bound(node.vicinity_ids.begin(),
                                   node.vicinity_ids.end(), v);
  if (it != node.vicinity_ids.end() && *it == v) {
    const auto i = static_cast<std::size_t>(it - node.vicinity_ids.begin());
    return ports_.neighbor_at(u, node.vicinity_port[i]);
  }
  const NodeId l = landmark_of_[v];  // from the destination's label
  return ports_.neighbor_at(u, node.landmark_port[landmark_index_[l]]);
}

namespace {

class LandmarkFastPath final : public model::FastPath {
 public:
  LandmarkFastPath(std::size_t n,
                   std::vector<model::PackedSparseArray> vicinity,
                   std::vector<model::PackedValueArray> landmark_ports,
                   std::vector<NodeId> landmark_of,
                   std::vector<std::uint32_t> landmark_index,
                   graph::CsrGraph csr)
      : n_(n),
        vicinity_(std::move(vicinity)),
        landmark_ports_(std::move(landmark_ports)),
        landmark_of_(std::move(landmark_of)),
        landmark_index_(std::move(landmark_index)),
        csr_(std::move(csr)) {}

  [[nodiscard]] std::string name() const override { return "landmark"; }
  [[nodiscard]] std::size_t node_count() const override { return n_; }

  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label) const override {
    const NodeId v = dest_label;
    if (v == u) throw std::invalid_argument("LandmarkScheme: routing to self");
    const auto& vic = vicinity_[u];
    if (vic.contains(v)) {
      return csr_.neighbor_at(u, static_cast<graph::PortId>(vic.value(v)));
    }
    const NodeId l = landmark_of_[v];
    const auto port = static_cast<graph::PortId>(
        landmark_ports_[u].at(landmark_index_[l]));
    return csr_.neighbor_at(u, port);
  }

 private:
  std::size_t n_;
  std::vector<model::PackedSparseArray> vicinity_;
  std::vector<model::PackedValueArray> landmark_ports_;
  std::vector<NodeId> landmark_of_;
  std::vector<std::uint32_t> landmark_index_;
  graph::CsrGraph csr_;  // sorted = port order for this scheme
};

}  // namespace

std::unique_ptr<model::FastPath> LandmarkScheme::compile_fast() const {
  std::vector<model::PackedSparseArray> vicinity;
  std::vector<model::PackedValueArray> landmark_ports;
  vicinity.reserve(n_);
  landmark_ports.reserve(n_);
  for (NodeId w = 0; w < n_; ++w) {
    const unsigned port_width =
        bitio::ceil_log2(std::max<std::size_t>(ports_.degree(w), 1));
    const DecodedNode& node = decoded_[w];
    bitio::BitVector mask(n_);
    for (NodeId v : node.vicinity_ids) mask.set(v, true);
    vicinity.emplace_back(std::move(mask), node.vicinity_port, port_width);
    landmark_ports.emplace_back(node.landmark_port, port_width);
  }
  model::note_fastpath_compiled("landmark");
  return std::make_unique<LandmarkFastPath>(
      n_, std::move(vicinity), std::move(landmark_ports), landmark_of_,
      landmark_index_, graph::CsrGraph::from_ports(ports_));
}

model::SpaceReport LandmarkScheme::space() const {
  model::SpaceReport report;
  report.function_bits.reserve(n_);
  for (const auto& bits : function_bits_) {
    report.function_bits.push_back(bits.size());
  }
  // Model γ: the (v, l(v)) labels are charged — 2·⌈log n⌉ bits per node.
  report.label_bits =
      n_ * 2 * bitio::ceil_log2(std::max<std::size_t>(n_, 2));
  return report;
}

}  // namespace optrt::schemes
