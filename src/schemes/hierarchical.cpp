#include "schemes/hierarchical.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <compare>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "graph/algorithms.hpp"
#include "graph/ports.hpp"
#include "model/fastpath.hpp"
#include "schemes/errors.hpp"
#include "schemes/landmark_table.hpp"

namespace optrt::schemes {

namespace {

// Header phases.
constexpr std::uint32_t kNoWaypoint = 0;
constexpr std::uint32_t kWaypointSet = 1;

/// p_i(v) for every level (p₀ = identity): the first pivot in stored
/// order at v's least distance, from one multi-source BFS per level.
/// Throws std::invalid_argument on an empty level or a pivot id out of
/// range.
std::vector<std::vector<NodeId>> nearest_pivots(
    const graph::Graph& g,
    const std::vector<std::vector<NodeId>>& pivot_sets) {
  const std::size_t n = g.node_count();
  std::vector<std::vector<NodeId>> pivot_of(pivot_sets.size());
  pivot_of[0].resize(n);
  std::iota(pivot_of[0].begin(), pivot_of[0].end(), 0);
  for (std::size_t i = 1; i < pivot_sets.size(); ++i) {
    const auto& pivots = pivot_sets[i];
    if (pivots.empty()) {
      throw std::invalid_argument("HierarchicalScheme: empty pivot set");
    }
    if (std::any_of(pivots.begin(), pivots.end(),
                    [n](NodeId t) { return t >= n; })) {
      throw std::invalid_argument("HierarchicalScheme: bad pivot id");
    }
    const auto index = nearest_landmarks(g, pivots).index;
    pivot_of[i].resize(n);
    for (NodeId v = 0; v < n; ++v) pivot_of[i][v] = pivots[index[v]];
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
  const unsigned id_width = bitio::id_width(n);
  const unsigned port_width = bitio::port_width(degree);
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

class HierarchicalFastPath final
    : public model::DirectBatchFastPath<HierarchicalFastPath> {
 public:
  /// A fresh-header answer: the hop and the target it heads for.
  struct Decision {
    NodeId hop;
    NodeId target;
  };

  HierarchicalFastPath(std::vector<model::PackedSparseArray> tables,
                       const std::vector<std::vector<NodeId>>& pivot_of,
                       graph::Graph g)
      : tables_(std::move(tables)),
        levels_(pivot_of.size()),
        labels_(tables_.size() * levels_),
        g_(std::move(g)) {
    for (std::size_t i = 0; i < levels_; ++i) {
      for (std::size_t v = 0; v < tables_.size(); ++v) {
        labels_[v * levels_ + i] = pivot_of[i][v];
      }
    }
  }

  [[nodiscard]] std::string name() const override { return "hierarchical"; }
  [[nodiscard]] std::size_t node_count() const override {
    return tables_.size();
  }

  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label) const override {
    return decide(u, dest_label).hop;
  }

  // The fresh-header decision: head for the first of v, p₁(v), …,
  // p_{k−1}(v) that u lists. Whether u lists each one is a per-pair coin,
  // so the membership bits of all of them are taken at once and
  // countr_zero picks the first. A target equal to u is a hit too; the
  // ladder handles that handoff and a destination nothing resolves.
  [[nodiscard]] Decision decide(NodeId u, NodeId v) const {
    if (v == u) {
      throw std::invalid_argument("HierarchicalScheme: routing to self");
    }
    const auto& table = tables_[u];
    const NodeId* label = labels_.data() + std::size_t{v} * levels_;
    const std::size_t levels = std::min<std::size_t>(levels_, 64);
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < levels; ++i) {
      const NodeId t = label[i];  // p₀(v) = v
      const auto listed = static_cast<std::uint64_t>(table.contains(t));
      hits |= (listed | static_cast<std::uint64_t>(t == u)) << i;
    }
    if (hits != 0) {
      const NodeId t = label[std::countr_zero(hits)];
      if (t != u) return {hop(u, t), t};
    }
    return ladder(u, v);
  }

  /// The next hop of an active leg toward `target`, if u resolves it.
  [[nodiscard]] std::optional<NodeId> follow(NodeId u, NodeId target) const {
    if (target >= tables_.size() || !tables_[u].contains(target)) {
      return std::nullopt;
    }
    return hop(u, target);
  }

  [[nodiscard]] NodeId pivot_of(std::size_t level, NodeId v) const {
    return labels_[std::size_t{v} * levels_ + level];
  }
  [[nodiscard]] const graph::Graph& graph() const { return g_; }

 private:
  // The decision ladder: destination first, then its pivots bottom-up,
  // with the handoff throw when u is the pivot but the installed leg is
  // missing.
  [[nodiscard]] Decision ladder(NodeId u, NodeId v) const {
    const auto& table = tables_[u];
    const auto head_for = [&](NodeId target) {
      return Decision{hop(u, target), target};
    };
    if (table.contains(v)) return head_for(v);
    for (std::size_t i = 1; i < levels_; ++i) {
      const NodeId t = pivot_of(i, v);  // from the destination's label
      if (t == u) {
        // u is v's level-i pivot: hand off to the level-(i−1) pivot via
        // the installed path (it starts here).
        const NodeId x = pivot_of(i - 1, v);
        if (x == u || !table.contains(x)) {
          throw std::logic_error("HierarchicalScheme: missing handoff entry");
        }
        return head_for(x);
      }
      if (table.contains(t)) return head_for(t);
    }
    throw std::logic_error("HierarchicalScheme: unresolvable destination");
  }

  [[nodiscard]] NodeId hop(NodeId u, NodeId target) const {
    return g_.neighbor_at(
        u, static_cast<graph::PortId>(tables_[u].value(target)));
  }

  std::vector<model::PackedSparseArray> tables_;
  std::size_t levels_;
  /// v's charged label (v, p₁(v), …, p_{k−1}(v)) at [v·k, v·k + k).
  std::vector<NodeId> labels_;
  graph::Graph g_;  // sorted = port order for this scheme
};

HierarchicalScheme::HierarchicalScheme(const graph::Graph& g, Options options)
    : n_(g.node_count()), levels_(options.levels) {
  if (levels_ < 2) {
    throw SchemeInapplicable("hierarchical: need levels >= 2");
  }
  if (!graph::is_connected(g)) {
    throw SchemeInapplicable("hierarchical: graph disconnected");
  }
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
  const auto pivot_of = nearest_pivots(g, pivot_sets_);

  // Per node: (target, installed, port) entries, each port the rank of the
  // least shortest-path successor. Direct (T)/(V) entries sort first, so
  // they win over installed (H) duplicates.
  struct Entry {
    NodeId target;
    bool installed;
    graph::PortId port;
    auto operator<=>(const Entry&) const = default;
  };
  std::vector<std::vector<Entry>> entries(n_);

  // Every node's ports toward up to 64 targets at a time from
  // graph::least_ports, so no more than 64·n ports are held:
  // use(pass, ports) finds w's port toward pass[i] at ports[w·|pass| + i].
  using Ports = std::span<const graph::PortId>;
  const auto in_port_passes = [&](std::span<const NodeId> targets,
                                  const auto& use) {
    constexpr std::size_t kPass = 64;
    for (std::size_t first = 0; first < targets.size(); first += kPass) {
      const auto pass =
          targets.subspan(first, std::min(kPass, targets.size() - first));
      std::vector<graph::PortId> ports(n_ * pass.size(), 0);
      graph::least_ports(g, pass, ports);
      use(pass, Ports(ports));
    }
  };

  // (T) every node resolves every top pivot.
  in_port_passes(pivot_sets_[levels_ - 1], [&](std::span<const NodeId> pass,
                                               Ports ports) {
    for (NodeId w = 0; w < n_; ++w) {
      for (std::size_t i = 0; i < pass.size(); ++i) {
        if (w != pass[i]) {
          entries[w].push_back({pass[i], false, ports[w * pass.size() + i]});
        }
      }
    }
  });
  // (V) vicinity C(w) = {v : d(w, v) ≤ d(v, p₁(v))}, i.e. the cluster
  // under r = d(·, A₁) + 1.
  std::vector<std::uint32_t> radius =
      nearest_landmarks(g, pivot_sets_[1]).distance;
  for (std::uint32_t& r : radius) ++r;
  ClusterBfs cluster_bfs(g, std::move(radius));
  for (NodeId w = 0; w < n_; ++w) {
    for (const TableEntry& e : cluster_bfs(w)) {
      entries[w].push_back({e.id, false, e.port});
    }
  }
  // (H) installed handoff paths: for i ≥ 2, one shortest path from every
  // level-i pivot t to each child pivot x = p_{i−1}(v) of its members.
  // Legs are grouped by x, and one port pass serves up to 64 of the x.
  std::vector<std::pair<NodeId, NodeId>> legs;  // (x, t)
  for (std::size_t i = 2; i < levels_; ++i) {
    for (NodeId v = 0; v < n_; ++v) {
      if (pivot_of[i][v] != pivot_of[i - 1][v]) {
        legs.emplace_back(pivot_of[i - 1][v], pivot_of[i][v]);
      }
    }
  }
  std::sort(legs.begin(), legs.end());
  legs.erase(std::unique(legs.begin(), legs.end()), legs.end());
  std::vector<NodeId> children;  // the distinct x, ascending
  for (const auto& leg : legs) {
    if (children.empty() || children.back() != leg.first) {
      children.push_back(leg.first);
    }
  }
  std::size_t j = 0;  // the first leg not yet walked
  in_port_passes(children, [&](std::span<const NodeId> pass, Ports ports) {
    for (std::size_t c = 0; c < pass.size(); ++c) {
      const NodeId x = pass[c];
      // Walk the canonical (least-successor) shortest path t → x of each
      // leg, installing an entry for x at every node before x.
      for (; j < legs.size() && legs[j].first == x; ++j) {
        for (NodeId at = legs[j].second; at != x;) {
          const graph::PortId port = ports[at * pass.size() + c];
          entries[at].push_back({x, true, port});
          at = g.neighbor_at(at, port);
        }
      }
    }
  });

  // Serialize: a prime-coded entry count, then (target, port, installed)
  // in increasing target order.
  const unsigned id_width = bitio::id_width(n_);
  std::vector<bitio::BitVector> bits(n_);
  for (NodeId w = 0; w < n_; ++w) {
    std::vector<Entry>& table = entries[w];
    std::sort(table.begin(), table.end());
    table.erase(std::ranges::unique(table, {}, &Entry::target).begin(),
                table.end());
    const unsigned port_width = bitio::port_width(g.degree(w));
    bitio::BitWriter out;
    bitio::write_prime(out, table.size());
    for (const Entry& e : table) {
      out.write_bits(e.target, id_width);
      out.write_bits(e.port, port_width);
      out.write_bit(e.installed);
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
  const auto pivot_of = nearest_pivots(g, pivot_sets_);
  const unsigned id_width = bitio::id_width(n_);
  function_bits_ = std::move(node_bits);
  std::vector<model::PackedSparseArray> tables;
  tables.reserve(n_);
  std::vector<std::uint32_t> ports;
  for (NodeId w = 0; w < n_; ++w) {
    const unsigned port_width = bitio::port_width(g.degree(w));
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
  fast_ = std::make_shared<HierarchicalFastPath>(std::move(tables), pivot_of,
                                                 g);
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
  const auto ports = fast_->graph().neighbors(u);
  return {ports.begin(), ports.end()};
}

model::SpaceReport HierarchicalScheme::space() const {
  // Charged labels: (v, p₁(v), …, p_{k−1}(v)) at ⌈log n⌉ bits each.
  return model::SpaceReport::of(function_bits_,
                                n_ * levels_ * bitio::id_width(n_));
}

}  // namespace optrt::schemes
