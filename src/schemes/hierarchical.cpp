#include "schemes/hierarchical.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "model/fastpath.hpp"
#include "schemes/errors.hpp"

namespace optrt::schemes {

namespace {

// Header phases.
constexpr std::uint32_t kNoWaypoint = 0;
constexpr std::uint32_t kWaypointSet = 1;

unsigned id_width_of(std::size_t n) {
  return bitio::ceil_log2(std::max<std::size_t>(n, 2));
}

unsigned port_width_of(std::size_t degree) {
  return bitio::ceil_log2(std::max<std::size_t>(degree, 1));
}

/// p_i(v) for every level (p₀ = identity), least id on ties. Throws
/// std::invalid_argument on an empty level or a pivot id out of range.
std::vector<std::vector<NodeId>> nearest_pivots(
    const graph::DistanceMatrix& dist, std::size_t n,
    const std::vector<std::vector<NodeId>>& pivot_sets) {
  std::vector<std::vector<NodeId>> pivot_of(pivot_sets.size());
  pivot_of[0].resize(n);
  std::iota(pivot_of[0].begin(), pivot_of[0].end(), 0);
  for (std::size_t i = 1; i < pivot_sets.size(); ++i) {
    if (pivot_sets[i].empty()) {
      throw std::invalid_argument("HierarchicalScheme: empty pivot set");
    }
    pivot_of[i].assign(n, pivot_sets[i][0]);
    for (NodeId v = 0; v < n; ++v) {
      std::uint32_t best = graph::kUnreachable;
      for (NodeId t : pivot_sets[i]) {
        if (t >= n) {
          throw std::invalid_argument("HierarchicalScheme: bad pivot id");
        }
        if (dist.at(v, t) < best) {
          best = dist.at(v, t);
          pivot_of[i][v] = t;
        }
      }
    }
  }
  return pivot_of;
}

/// Reference decode of one node's bits: the stored port toward `target`
/// (entries are fixed-width and target-sorted after the prime-coded
/// count).
std::optional<graph::PortId> read_entry_port(const bitio::BitVector& bits,
                                             std::size_t n,
                                             std::size_t degree,
                                             NodeId target) {
  const unsigned id_width = id_width_of(n);
  const unsigned port_width = port_width_of(degree);
  bitio::BitReader r(bits);
  const auto count = static_cast<std::size_t>(bitio::read_prime(r));
  const auto port =
      bitio::find_sorted_record(r, r.position(), count,
                                id_width + port_width + 1, id_width,
                                port_width, target);
  if (!port) return std::nullopt;
  return static_cast<graph::PortId>(*port);
}

}  // namespace

class HierarchicalFastPath final : public model::FastPath {
 public:
  /// A fresh-header answer: the hop and the target it heads for.
  struct Decision {
    NodeId hop;
    NodeId target;
  };

  HierarchicalFastPath(std::vector<model::PackedSparseArray> tables,
                       std::vector<std::vector<NodeId>> pivot_of,
                       graph::CsrGraph csr)
      : tables_(std::move(tables)),
        pivot_of_(std::move(pivot_of)),
        csr_(std::move(csr)) {}

  [[nodiscard]] std::string name() const override { return "hierarchical"; }
  [[nodiscard]] std::size_t node_count() const override {
    return tables_.size();
  }

  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label) const override {
    return decide(u, dest_label).hop;
  }

  // The fresh-header decision ladder: destination first, then its pivots
  // bottom-up, with the handoff throw when u is the pivot but the
  // installed leg is missing.
  [[nodiscard]] Decision decide(NodeId u, NodeId v) const {
    if (v == u) {
      throw std::invalid_argument("HierarchicalScheme: routing to self");
    }
    const auto& table = tables_[u];
    const auto head_for = [&](NodeId target) {
      return Decision{hop(u, target), target};
    };
    if (table.contains(v)) return head_for(v);
    for (std::size_t i = 1; i < pivot_of_.size(); ++i) {
      const NodeId t = pivot_of_[i][v];  // from the destination's label
      if (t == u) {
        // u is v's level-i pivot: hand off to the level-(i−1) pivot via
        // the installed path (it starts here).
        const NodeId x = pivot_of_[i - 1][v];
        if (x == u || !table.contains(x)) {
          throw std::logic_error("HierarchicalScheme: missing handoff entry");
        }
        return head_for(x);
      }
      if (table.contains(t)) return head_for(t);
    }
    throw std::logic_error("HierarchicalScheme: unresolvable destination");
  }

  /// The next hop of an active leg toward `target`, if u resolves it.
  [[nodiscard]] std::optional<NodeId> follow(NodeId u, NodeId target) const {
    if (target >= tables_.size() || !tables_[u].contains(target)) {
      return std::nullopt;
    }
    return hop(u, target);
  }

  [[nodiscard]] NodeId pivot_of(std::size_t level, NodeId v) const {
    return pivot_of_[level][v];
  }
  [[nodiscard]] const graph::CsrGraph& csr() const { return csr_; }

 private:
  [[nodiscard]] NodeId hop(NodeId u, NodeId target) const {
    return csr_.neighbor_at(
        u, static_cast<graph::PortId>(tables_[u].value(target)));
  }

  std::vector<model::PackedSparseArray> tables_;
  std::vector<std::vector<NodeId>> pivot_of_;  // [level][v]
  graph::CsrGraph csr_;  // sorted = port order for this scheme
};

HierarchicalScheme::HierarchicalScheme(const graph::Graph& g, Options options)
    : n_(g.node_count()), levels_(options.levels) {
  if (levels_ < 2) {
    throw SchemeInapplicable("hierarchical: need levels >= 2");
  }
  if (!graph::is_connected(g)) {
    throw SchemeInapplicable("hierarchical: graph disconnected");
  }
  const auto dist_cached = graph::DistanceCache::global().get(g);
  const graph::DistanceMatrix& dist = *dist_cached;
  const double k = static_cast<double>(levels_);

  // Nested pivot sets: A_i = first ⌈n^{(k−i)/k}⌉ nodes of one shuffled
  // order, i = 1..k−1. pivot_sets_[0] stays empty (A₀ = V).
  std::vector<NodeId> order(n_);
  std::iota(order.begin(), order.end(), 0);
  graph::Rng rng(options.seed);
  std::shuffle(order.begin(), order.end(), rng);

  pivot_sets_.resize(levels_);
  for (std::size_t i = 1; i < levels_; ++i) {
    const auto size = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(
               std::pow(static_cast<double>(n_), (k - static_cast<double>(i)) / k))));
    pivot_sets_[i].assign(order.begin(),
                          order.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(size, n_)));
    std::sort(pivot_sets_[i].begin(), pivot_sets_[i].end());
  }
  const auto pivot_of = nearest_pivots(dist, n_, pivot_sets_);

  // Entry assembly: target → (port, installed?). Vicinity/top entries win
  // over installed duplicates.
  const auto ports = graph::PortAssignment::sorted(g);
  std::vector<std::map<NodeId, std::pair<graph::PortId, bool>>> entries(n_);
  auto hop_port = [&](NodeId from, NodeId to) {
    return ports.port_of(
        from, graph::shortest_path_successors(g, dist, from, to).front());
  };
  auto add_direct = [&](NodeId at, NodeId target) {
    if (at == target) return;
    entries[at][target] = {hop_port(at, target), false};
  };
  auto add_installed = [&](NodeId at, NodeId target) {
    if (at == target) return;
    entries[at].emplace(target,
                        std::make_pair(hop_port(at, target), true));
  };

  // (T) every node resolves every top pivot.
  for (NodeId w = 0; w < n_; ++w) {
    for (NodeId t : pivot_sets_[levels_ - 1]) add_direct(w, t);
  }
  // (V) vicinity C(w) = {v : d(w, v) ≤ d(v, p₁(v))}.
  for (NodeId w = 0; w < n_; ++w) {
    for (NodeId v = 0; v < n_; ++v) {
      if (v != w && dist.at(w, v) <= dist.at(v, pivot_of[1][v])) {
        add_direct(w, v);
      }
    }
  }
  // (H) installed handoff paths: for i ≥ 2, one shortest path from every
  // level-i pivot t to each child pivot x = p_{i−1}(v) of its members.
  std::set<std::pair<NodeId, NodeId>> installed_pairs;
  for (std::size_t i = 2; i < levels_; ++i) {
    for (NodeId v = 0; v < n_; ++v) {
      const NodeId t = pivot_of[i][v];
      const NodeId x = pivot_of[i - 1][v];
      if (t == x) continue;
      if (!installed_pairs.emplace(t, x).second) continue;
      // Walk the canonical (least-successor) shortest path t → x,
      // installing an entry for x at every interior node.
      NodeId at = t;
      while (at != x) {
        add_installed(at, x);
        at = graph::shortest_path_successors(g, dist, at, x).front();
      }
    }
  }

  // Serialize: a prime-coded entry count, then (target, port, installed)
  // in increasing target order.
  const unsigned id_width = id_width_of(n_);
  std::vector<bitio::BitVector> bits(n_);
  for (NodeId w = 0; w < n_; ++w) {
    const unsigned port_width = port_width_of(g.degree(w));
    bitio::BitWriter out;
    bitio::write_prime(out, entries[w].size());
    for (const auto& [target, entry] : entries[w]) {
      out.write_bits(target, id_width);
      out.write_bits(entry.first, port_width);
      out.write_bit(entry.second);
    }
    bits[w] = out.take();
  }
  compile(g, std::move(bits));
}

HierarchicalScheme::HierarchicalScheme(
    const graph::Graph& g, std::vector<std::vector<NodeId>> pivot_sets,
    std::vector<bitio::BitVector> node_bits)
    : n_(g.node_count()),
      levels_(pivot_sets.size()),
      pivot_sets_(std::move(pivot_sets)) {
  compile(g, std::move(node_bits));
}

void HierarchicalScheme::compile(const graph::Graph& g,
                                 std::vector<bitio::BitVector> node_bits) {
  if (levels_ < 2 || node_bits.size() != n_) {
    throw std::invalid_argument("HierarchicalScheme: bad serialized state");
  }
  const auto dist_cached = graph::DistanceCache::global().get(g);
  auto pivot_of = nearest_pivots(*dist_cached, n_, pivot_sets_);
  const unsigned id_width = id_width_of(n_);
  function_bits_ = std::move(node_bits);
  std::vector<model::PackedSparseArray> tables;
  tables.reserve(n_);
  std::vector<std::uint32_t> ports;
  for (NodeId w = 0; w < n_; ++w) {
    const unsigned port_width = port_width_of(g.degree(w));
    const std::size_t degree = std::max<std::size_t>(g.degree(w), 1);
    const std::size_t entry_bits = id_width + port_width + 1;
    bitio::BitReader r(function_bits_[w]);
    const auto count = static_cast<std::size_t>(bitio::read_prime(r));
    // The stored count must fit the node's actual bits before it sizes
    // any allocation; a corrupt count field is not a resize request.
    if (count > r.remaining() / entry_bits) {
      throw std::length_error(
          "HierarchicalScheme: entry count exceeds the stored bits");
    }
    bitio::BitVector mask(n_);
    ports.resize(count);
    NodeId previous = 0;
    for (std::size_t e = 0; e < count; ++e) {
      const auto target = static_cast<NodeId>(r.read_bits(id_width));
      ports[e] = static_cast<std::uint32_t>(r.read_bits(port_width));
      (void)r.read_bit();  // installed flag: routing treats both alike
      // The compiled table is rank-indexed by target.
      if (target >= n_ || ports[e] >= degree ||
          (e > 0 && target <= previous)) {
        throw std::invalid_argument("HierarchicalScheme: bad table entry");
      }
      mask.set(target, true);
      previous = target;
    }
    if (!r.exhausted()) {
      throw std::invalid_argument(
          "HierarchicalScheme: trailing bits in a node table");
    }
    tables.emplace_back(std::move(mask), ports, port_width);
  }
  fast_ = std::make_shared<HierarchicalFastPath>(
      std::move(tables), std::move(pivot_of), graph::CsrGraph(g));
  model::note_fastpath_compiled("hierarchical");
}

NodeId HierarchicalScheme::next_hop(NodeId u, NodeId dest_label,
                                    model::MessageHeader& header) const {
  if (dest_label == u) {
    throw std::invalid_argument("HierarchicalScheme: routing to self");
  }
  // Continue an active waypoint leg.
  if (header.phase == kWaypointSet) {
    const NodeId w = static_cast<NodeId>(header.probe_index);
    if (w != u) {
      if (const auto hop = fast_->follow(u, w)) return *hop;
    }
    header.phase = kNoWaypoint;  // arrived (or leg no longer resolvable)
  }
  const auto decision = fast_->decide(u, dest_label);
  header.phase = kWaypointSet;
  header.probe_index = decision.target;
  return decision.hop;
}

NodeId HierarchicalScheme::reference_next_hop(const graph::Graph& g, NodeId u,
                                              NodeId dest_label) const {
  const NodeId v = dest_label;
  if (v == u) {
    throw std::invalid_argument("HierarchicalScheme: routing to self");
  }
  const auto nbrs = g.neighbors(u);
  const auto port_toward = [&](NodeId target) {
    return read_entry_port(function_bits_[u], n_, nbrs.size(), target);
  };
  if (const auto port = port_toward(v)) return nbrs[*port];
  for (std::size_t i = 1; i < levels_; ++i) {
    const NodeId t = pivot_of(i, v);
    if (t == u) {
      const NodeId x = pivot_of(i - 1, v);
      const auto port = x == u ? std::nullopt : port_toward(x);
      if (!port) {
        throw std::logic_error("HierarchicalScheme: missing handoff entry");
      }
      return nbrs[*port];
    }
    if (const auto port = port_toward(t)) return nbrs[*port];
  }
  throw std::logic_error("HierarchicalScheme: unresolvable destination");
}

std::shared_ptr<const model::FastPath> HierarchicalScheme::compile_fast()
    const {
  return fast_;
}

NodeId HierarchicalScheme::pivot_of(std::size_t level, NodeId v) const {
  return fast_->pivot_of(level, v);
}

std::vector<NodeId> HierarchicalScheme::port_enumeration(NodeId u) const {
  const auto ports = fast_->csr().neighbors(u);
  return {ports.begin(), ports.end()};
}

model::SpaceReport HierarchicalScheme::space() const {
  // Charged labels: (v, p₁(v), …, p_{k−1}(v)) at ⌈log n⌉ bits each.
  return model::SpaceReport::of(function_bits_,
                                n_ * levels_ * id_width_of(n_));
}

}  // namespace optrt::schemes
