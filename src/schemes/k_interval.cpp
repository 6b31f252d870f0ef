#include "schemes/k_interval.hpp"

#include <algorithm>
#include <stdexcept>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "graph/algorithms.hpp"
#include "schemes/errors.hpp"

namespace optrt::schemes {

bool KIntervalScheme::contains(const Interval& iv, NodeId label,
                               std::size_t) noexcept {
  if (iv.lo <= iv.hi) return iv.lo <= label && label <= iv.hi;
  return label >= iv.lo || label <= iv.hi;  // cyclic wrap
}

KIntervalScheme::KIntervalScheme(const graph::Graph& g)
    : n_(g.node_count()), ports_(graph::PortAssignment::sorted(g)) {
  if (!graph::is_connected(g)) {
    throw SchemeInapplicable("k-interval: graph disconnected");
  }
  const auto dist_cached = graph::DistanceCache::global().get(g);
  const graph::DistanceMatrix& dist = *dist_cached;
  const unsigned id_width = bitio::ceil_log2(std::max<std::size_t>(n_, 2));

  function_bits_.resize(n_);
  for (NodeId u = 0; u < n_; ++u) {
    const std::size_t degree = g.degree(u);
    // Destination → port of least shortest-path successor.
    std::vector<std::vector<NodeId>> members(degree);
    for (NodeId v = 0; v < n_; ++v) {
      if (v == u) continue;
      const auto succ = graph::shortest_path_successors(g, dist, u, v);
      members[ports_.port_of(u, succ.front())].push_back(v);
    }
    // Merge each port's (sorted) member list into maximal cyclic runs.
    // Two labels are in one run when consecutive mod n, skipping u itself
    // (u's own label never needs routing, so runs may jump over it).
    bitio::BitWriter w;
    for (std::size_t p = 0; p < degree; ++p) {
      const auto& list = members[p];
      std::vector<Interval> intervals;
      if (list.size() == n_ - 1) {
        // The port routes every other label: one cyclic interval that
        // wraps around u.
        intervals.push_back(Interval{static_cast<NodeId>((u + 1) % n_),
                                     static_cast<NodeId>((u + n_ - 1) % n_)});
      } else if (!list.empty()) {
        // Runs are maximal chains under the cyclic successor that skips
        // u's own label (u is never a destination, so runs may cross it).
        auto next_label = [this, u](NodeId x) {
          NodeId nx = static_cast<NodeId>((x + 1) % n_);
          if (nx == u) nx = static_cast<NodeId>((nx + 1) % n_);
          return nx;
        };
        auto prev_label = [this, u](NodeId x) {
          NodeId pv = static_cast<NodeId>((x + n_ - 1) % n_);
          if (pv == u) pv = static_cast<NodeId>((pv + n_ - 1) % n_);
          return pv;
        };
        std::vector<bool> present(n_, false);
        for (NodeId v : list) present[v] = true;
        for (NodeId v : list) {
          if (present[prev_label(v)]) continue;  // not a run start
          NodeId end = v;
          while (present[next_label(end)]) end = next_label(end);
          intervals.push_back(Interval{v, end});
        }
      }
      compactness_ = std::max(compactness_, intervals.size());
      total_intervals_ += intervals.size();
      // Serialize: interval count, then (lo, hi) pairs.
      bitio::write_prime(w, intervals.size());
      for (const Interval& iv : intervals) {
        w.write_bits(iv.lo, id_width);
        w.write_bits(iv.hi, id_width);
      }
    }
    function_bits_[u] = w.take();
  }
}

NodeId KIntervalScheme::next_hop(NodeId u, NodeId dest_label,
                                 model::MessageHeader&) const {
  if (dest_label == u) {
    throw std::invalid_argument("KIntervalScheme: routing to self");
  }
  const unsigned id_width = bitio::ceil_log2(std::max<std::size_t>(n_, 2));
  bitio::BitReader r(function_bits_[u]);
  for (std::size_t p = 0; p < ports_.degree(u); ++p) {
    const auto count = static_cast<std::size_t>(bitio::read_prime(r));
    for (std::size_t i = 0; i < count; ++i) {
      Interval iv;
      iv.lo = static_cast<NodeId>(r.read_bits(id_width));
      iv.hi = static_cast<NodeId>(r.read_bits(id_width));
      if (contains(iv, dest_label, n_)) {
        return ports_.neighbor_at(u, static_cast<graph::PortId>(p));
      }
    }
  }
  throw std::logic_error("KIntervalScheme: uncovered destination label");
}

model::SpaceReport KIntervalScheme::space() const {
  return model::SpaceReport::of(function_bits_);
}

}  // namespace optrt::schemes
