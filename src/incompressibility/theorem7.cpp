#include "incompressibility/theorem7.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"

namespace optrt::incompress {

namespace {

// Per-port destination-label lists obtained by applying F(u) to every
// label, exactly as Claim 3 prescribes. Queries only the serialized table.
std::vector<std::vector<graph::NodeId>> destinations_per_port(
    const schemes::FullTableScheme& scheme, graph::NodeId u) {
  const std::size_t n = scheme.node_count();
  const unsigned width = scheme.entry_width(u);
  bitio::BitReader r(scheme.function_bits(u));
  std::vector<std::vector<graph::NodeId>> lists(scheme.ports().degree(u));
  const graph::NodeId own_label = scheme.label_of(u);
  for (graph::NodeId label = 0; label < n; ++label) {
    const auto port = static_cast<graph::PortId>(r.read_bits(width));
    if (label == own_label) continue;
    lists[port].push_back(label);
  }
  return lists;
}

}  // namespace

std::size_t claim2_sum(const std::vector<std::size_t>& xs) {
  std::size_t sum = 0;
  for (std::size_t x : xs) {
    if (x == 0) throw std::invalid_argument("claim2: x must be >= 1");
    sum += bitio::ceil_log2(x);
  }
  return sum;
}

std::size_t claim2_bound(const std::vector<std::size_t>& xs) {
  const std::size_t total =
      std::accumulate(xs.begin(), xs.end(), std::size_t{0});
  return total - xs.size();
}

Claim3Encoding claim3_encode(const schemes::FullTableScheme& scheme,
                             graph::NodeId u) {
  const auto lists = destinations_per_port(scheme, u);
  Claim3Encoding out;
  bitio::BitWriter w;
  for (std::size_t p = 0; p < lists.size(); ++p) {
    const auto& list = lists[p];
    out.per_port_destinations.push_back(list.size());
    const graph::NodeId neighbor_label =
        scheme.label_of(scheme.ports().neighbor_at(u, static_cast<graph::PortId>(p)));
    std::size_t rank = list.size();
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i] == neighbor_label) {
        rank = i;
        break;
      }
    }
    if (rank == list.size()) {
      // A correct shortest-path table always routes a neighbour's label
      // over the direct edge, so its label appears in its own port's list.
      throw std::logic_error("claim3: neighbour not routed over its edge");
    }
    w.write_bits(rank, bitio::ceil_log2(std::max<std::size_t>(list.size(), 1)));
  }
  out.bits = w.take();
  return out;
}

std::vector<graph::NodeId> claim3_decode(const schemes::FullTableScheme& scheme,
                                         graph::NodeId u,
                                         const bitio::BitVector& bits) {
  const auto lists = destinations_per_port(scheme, u);
  bitio::BitReader r(bits);
  std::vector<graph::NodeId> neighbor_labels;
  neighbor_labels.reserve(lists.size());
  for (const auto& list : lists) {
    const auto rank = static_cast<std::size_t>(
        r.read_bits(bitio::ceil_log2(std::max<std::size_t>(list.size(), 1))));
    neighbor_labels.push_back(list[rank]);
  }
  return neighbor_labels;
}

Theorem7Aggregate theorem7_encode(const schemes::FullTableScheme& scheme,
                                  const graph::Graph& g) {
  const std::size_t n = g.node_count();
  Theorem7Aggregate out;
  out.original_bits = n * (n - 1) / 2;
  out.selected_nodes = (n + 1) / 2;

  bitio::BitWriter w;
  // Rank bits for the selected nodes; widths are recomputable from the
  // scheme, so no delimiters are needed.
  for (graph::NodeId u = 0; u < out.selected_nodes; ++u) {
    const Claim3Encoding enc = claim3_encode(scheme, u);
    out.claim3_bits += enc.bits.size();
    w.write_vector(enc.bits);
  }
  // Mutual edges of the unselected nodes, literally.
  for (graph::NodeId a = static_cast<graph::NodeId>(out.selected_nodes);
       a + 1 < n; ++a) {
    for (graph::NodeId b = a + 1; b < n; ++b) {
      w.write_bit(g.has_edge(a, b));
    }
  }
  out.bits = w.take();
  return out;
}

graph::Graph theorem7_decode(const schemes::FullTableScheme& scheme,
                             const bitio::BitVector& bits, std::size_t n) {
  const std::size_t selected = (n + 1) / 2;
  bitio::BitReader r(bits);
  std::vector<graph::Edge> edges;
  for (graph::NodeId u = 0; u < selected; ++u) {
    // Re-split the stream exactly as claim3_decode would: widths follow
    // from the per-port destination lists.
    const auto lists = destinations_per_port(scheme, u);
    for (const auto& list : lists) {
      const auto rank = static_cast<std::size_t>(r.read_bits(
          bitio::ceil_log2(std::max<std::size_t>(list.size(), 1))));
      const graph::NodeId v = scheme.node_of_label(list[rank]);
      edges.emplace_back(std::min(u, v), std::max(u, v));
    }
  }
  // Two selected endpoints each recover their shared edge.
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  for (graph::NodeId a = static_cast<graph::NodeId>(selected); a + 1 < n;
       ++a) {
    for (graph::NodeId b = a + 1; b < n; ++b) {
      if (r.read_bit()) edges.emplace_back(a, b);
    }
  }
  return graph::Graph(n, edges);
}

}  // namespace optrt::incompress
