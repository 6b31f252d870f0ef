#include "schemes/landmark_table.hpp"

#include <algorithm>
#include <stdexcept>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "obs/trace.hpp"

namespace optrt::schemes {

NearestLandmarks nearest_landmarks(
    const graph::Graph& g, const std::vector<graph::NodeId>& landmarks) {
  const std::size_t n = g.node_count();
  NearestLandmarks out;
  out.distance.assign(n, graph::kUnreachable);
  out.index.assign(n, 0);
  out.exit_port.assign(n, 0);
  std::vector<graph::NodeId> queue;
  queue.reserve(n);
  for (std::uint32_t i = 0; i < landmarks.size(); ++i) {
    const graph::NodeId l = landmarks[i];
    if (out.distance[l] == 0) continue;
    out.distance[l] = 0;
    out.index[l] = i;
    queue.push_back(l);
  }
  // Each node copies the pair of the parent that reaches it first. The
  // queue stays sorted by (index, exit port) level by level: landmarks
  // enter in index order and hand out (index, port) in port order, and
  // every later node is appended in its first parent's queue order. So
  // the first parent carries the least pair over all of the node's
  // parents.
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const graph::NodeId u = queue[head];
    const auto nbrs = g.neighbors(u);
    for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
      const graph::NodeId x = nbrs[p];
      if (out.distance[x] != graph::kUnreachable) continue;
      out.distance[x] = out.distance[u] + 1;
      out.index[x] = out.index[u];
      // Out of a landmark, x is its own first hop.
      out.exit_port[x] = out.distance[u] == 0 ? p : out.exit_port[u];
      queue.push_back(x);
    }
  }
  return out;
}

ClusterBfs::ClusterBfs(const graph::Graph& g, std::vector<std::uint32_t> r)
    : g_(g),
      r_(std::move(r)),
      stamp_(g.node_count(), 0),
      dist_(g.node_count()) {
  for (const std::uint32_t x : r_) max_r_ = std::max(max_r_, x);
}

const std::vector<TableEntry>& ClusterBfs::operator()(graph::NodeId w) {
  ++epoch_;
  stamp_[w] = epoch_;
  dist_[w] = 0;
  members_.clear();
  // The queue is w, then the members in the order they are found. As in
  // nearest_landmarks it stays sorted by first hop level by level, so the
  // first member to reach x carries the least first hop over all of x's
  // BFS parents, and by closure every such parent is a member.
  for (std::size_t head = 0; head <= members_.size(); ++head) {
    const graph::NodeId u = head == 0 ? w : members_[head - 1].id;
    const std::uint32_t d = dist_[u] + 1;
    if (d >= max_r_) break;  // no member lies this far out
    const auto nbrs = g_.neighbors(u);
    for (graph::PortId p = 0; p < nbrs.size(); ++p) {
      const graph::NodeId x = nbrs[p];
      if (stamp_[x] == epoch_) continue;
      stamp_[x] = epoch_;
      // A member is first reached at its exact distance; a node reached
      // too far out for its radius is no member and is never expanded.
      if (d >= r_[x]) continue;
      dist_[x] = d;
      members_.push_back({x, head == 0 ? p : members_[head - 1].port});
    }
  }
  return members_;
}

bitio::BitVector build_landmark_node_bits(
    const graph::Graph& g, graph::NodeId w,
    std::span<const graph::PortId> landmark_ports,
    std::span<const TableEntry> listed) {
  const std::size_t n = g.node_count();
  const unsigned pw = bitio::port_width(g.degree(w));
  bitio::BitWriter out;
  for (const graph::PortId port : landmark_ports) out.write_bits(port, pw);
  out.write_bits(listed.size(), bitio::ceil_log2_plus1(n));
  for (const TableEntry& e : listed) {
    out.write_bits(e.id, bitio::id_width(n));
    out.write_bits(e.port, pw);
  }
  return out.take();
}

std::vector<bitio::BitVector> build_landmark_tables(
    const graph::Graph& g, const std::vector<graph::NodeId>& landmarks,
    const std::vector<std::uint32_t>& r) {
  const obs::TraceSpan span("schemes.landmark_tables.build");
  const std::size_t n = g.node_count();
  const std::size_t k = landmarks.size();
  // ports[w·k + i]: w's port toward landmark i (0 at the landmark itself).
  std::vector<graph::PortId> ports(n * k, 0);
  graph::least_ports(g, landmarks, ports);
  ClusterBfs cluster_bfs(g, r);
  std::vector<TableEntry> listed;
  std::vector<bitio::BitVector> bits(n);
  for (graph::NodeId w = 0; w < n; ++w) {
    listed = cluster_bfs(w);
    std::ranges::sort(listed, {}, &TableEntry::id);
    bits[w] = build_landmark_node_bits(
        g, w, std::span(ports).subspan(w * k, k), listed);
  }
  return bits;
}

LandmarkTables compile_landmark_tables(
    const graph::Graph& g, const std::vector<graph::NodeId>& landmarks,
    const NearestLandmarks& nearest,
    const std::vector<bitio::BitVector>& bits, const std::string& scheme,
    const std::string& list) {
  const std::size_t n = g.node_count();
  LandmarkTables t(g);
  t.landmark_of.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    t.landmark_of[v] = landmarks[nearest.index[v]];
  }
  t.landmark_index.assign(n, 0);
  for (std::uint32_t i = 0; i < landmarks.size(); ++i) {
    t.landmark_index[landmarks[i]] = i;
  }
  t.listed.reserve(n);
  t.landmark_port.reserve(n);
  const auto bad_port = [&] {
    return std::invalid_argument(scheme +
                                 ": stored port exceeds the node degree");
  };
  std::vector<std::uint32_t> ports;
  for (graph::NodeId w = 0; w < n; ++w) {
    const std::size_t degree = std::max<std::size_t>(g.degree(w), 1);
    const unsigned pw = bitio::port_width(g.degree(w));
    bitio::BitReader r(bits[w]);
    ports.resize(landmarks.size());
    for (auto& p : ports) {
      p = static_cast<std::uint32_t>(r.read_bits(pw));
      if (p >= degree) throw bad_port();
    }
    t.landmark_port.emplace_back(ports, pw);
    const auto size =
        static_cast<std::size_t>(r.read_bits(bitio::ceil_log2_plus1(n)));
    if (size > n) {
      throw std::invalid_argument(scheme + ": " + list + " larger than n");
    }
    ports.resize(size);
    bitio::BitVector mask(n);
    std::uint64_t previous = 0;
    for (std::size_t i = 0; i < size; ++i) {
      const std::uint64_t id = r.read_bits(bitio::id_width(n));
      ports[i] = static_cast<std::uint32_t>(r.read_bits(pw));
      // The compiled table is rank-indexed by id: ids must be in range and
      // strictly increasing, ports below the degree.
      if (id >= n || (i > 0 && id <= previous)) {
        throw std::invalid_argument(scheme + ": bad " + list + " table");
      }
      if (ports[i] >= degree) throw bad_port();
      mask.set(id, true);
      previous = id;
    }
    if (!r.exhausted()) {
      throw std::invalid_argument(scheme + ": trailing bits in a node table");
    }
    t.listed.emplace_back(std::move(mask), ports, pw);
  }
  return t;
}

graph::PortId read_landmark_port(const bitio::BitVector& bits,
                                 std::size_t degree, std::size_t index) {
  bitio::BitReader r(bits);
  r.seek(index * bitio::port_width(degree));
  return static_cast<graph::PortId>(r.read_bits(bitio::port_width(degree)));
}

std::optional<graph::PortId> read_listed_port(const bitio::BitVector& bits,
                                              std::size_t n,
                                              std::size_t degree,
                                              std::size_t landmark_count,
                                              graph::NodeId v) {
  const unsigned pw = bitio::port_width(degree);
  const unsigned iw = bitio::id_width(n);
  bitio::BitReader r(bits);
  r.seek(landmark_count * pw);
  const auto count =
      static_cast<std::size_t>(r.read_bits(bitio::ceil_log2_plus1(n)));
  const auto port =
      bitio::find_sorted_record(r, r.position(), count, iw + pw, iw, pw, v);
  if (!port) return std::nullopt;
  return static_cast<graph::PortId>(*port);
}

}  // namespace optrt::schemes
