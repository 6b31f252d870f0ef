#include "schemes/landmark_table.hpp"

#include <algorithm>
#include <stdexcept>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"

namespace optrt::schemes {

namespace {

unsigned port_width(std::size_t degree) {
  return bitio::ceil_log2(std::max<std::size_t>(degree, 1));
}

unsigned id_width(std::size_t n) {
  return bitio::ceil_log2(std::max<std::size_t>(n, 2));
}

}  // namespace

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

bitio::BitVector build_landmark_node_bits(
    const graph::Graph& g, const graph::DistanceMatrix& dist,
    const std::vector<graph::NodeId>& landmarks,
    const std::vector<std::uint32_t>& list_below, graph::NodeId w) {
  const std::size_t n = g.node_count();
  const unsigned pw = port_width(g.degree(w));
  const auto nbrs = g.neighbors(w);
  // Ports are sorted, so the port of the least shortest-path successor is
  // its rank in w's neighbour list.
  const auto port_toward = [&](graph::NodeId target) {
    const std::uint32_t next = dist.at(w, target) - 1;
    const auto succ =
        std::find_if(nbrs.begin(), nbrs.end(), [&](graph::NodeId x) {
          return dist.at(x, target) == next;
        });
    return static_cast<std::uint64_t>(succ - nbrs.begin());
  };
  bitio::BitWriter out;
  for (graph::NodeId l : landmarks) {
    out.write_bits(l == w ? 0 : port_toward(l), pw);
  }
  std::vector<graph::NodeId> listed;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (v != w && dist.at(w, v) < list_below[v]) listed.push_back(v);
  }
  out.write_bits(listed.size(), bitio::ceil_log2_plus1(n));
  for (graph::NodeId v : listed) {
    out.write_bits(v, id_width(n));
    out.write_bits(port_toward(v), pw);
  }
  return out.take();
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
    const unsigned pw = port_width(g.degree(w));
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
      const std::uint64_t id = r.read_bits(id_width(n));
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
  r.seek(index * port_width(degree));
  return static_cast<graph::PortId>(r.read_bits(port_width(degree)));
}

std::optional<graph::PortId> read_listed_port(const bitio::BitVector& bits,
                                              std::size_t n,
                                              std::size_t degree,
                                              std::size_t landmark_count,
                                              graph::NodeId v) {
  const unsigned pw = port_width(degree);
  const unsigned iw = id_width(n);
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
