#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>
#include <stdexcept>
#include <utility>

namespace optrt::graph {

Graph random_gnp(std::size_t n, double p, Rng& rng) {
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("random_gnp: p not in [0,1]");
  std::vector<Edge> edges;
  std::bernoulli_distribution coin(p);
  for (NodeId u = 0; u + 1 < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (coin(rng)) edges.emplace_back(u, v);
    }
  }
  return Graph(n, edges);
}

Graph random_uniform(std::size_t n, Rng& rng) {
  // Draw the n(n-1)/2 edge bits directly from the generator words: exactly
  // the uniform distribution over E(G) strings of Definition 2.
  std::vector<Edge> edges;
  std::uint64_t word = 0;
  unsigned left = 0;
  for (NodeId u = 0; u + 1 < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (left == 0) {
        word = rng();
        left = 64;
      }
      if (word & 1u) edges.emplace_back(u, v);
      word >>= 1;
      --left;
    }
  }
  return Graph(n, edges);
}

Graph chain(std::size_t n) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u + 1 < n; ++u) edges.emplace_back(u, u + 1);
  return Graph(n, edges);
}

Graph ring(std::size_t n) {
  if (n < 3) throw std::invalid_argument("ring: need n >= 3");
  std::vector<Edge> edges;
  for (NodeId u = 0; u + 1 < n; ++u) edges.emplace_back(u, u + 1);
  edges.emplace_back(static_cast<NodeId>(n - 1), 0);
  return Graph(n, edges);
}

Graph complete(std::size_t n) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u + 1 < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return Graph(n, edges);
}

Graph star(std::size_t n) {
  if (n == 0) throw std::invalid_argument("star: need n >= 1");
  std::vector<Edge> edges;
  for (NodeId v = 1; v < n; ++v) edges.emplace_back(0, v);
  return Graph(n, edges);
}

Graph grid(std::size_t rows, std::size_t cols) {
  std::vector<Edge> edges;
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) edges.emplace_back(id(r, c), id(r + 1, c));
    }
  }
  return Graph(rows * cols, edges);
}

Graph hypercube(std::size_t dimension) {
  if (dimension > 20) throw std::invalid_argument("hypercube: dimension > 20");
  const std::size_t n = std::size_t{1} << dimension;
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (std::size_t b = 0; b < dimension; ++b) {
      const NodeId v = u ^ static_cast<NodeId>(1u << b);
      if (v > u) edges.emplace_back(u, v);
    }
  }
  return Graph(n, edges);
}

Graph barabasi_albert(std::size_t n, std::size_t attach, Rng& rng) {
  if (attach == 0) throw std::invalid_argument("barabasi_albert: attach >= 1");
  if (n < attach + 1) {
    throw std::invalid_argument("barabasi_albert: need n >= attach + 1");
  }
  // Sampling one of the 2m edge endpoints uniformly samples a node with
  // probability proportional to its degree.
  std::vector<Edge> edges;
  edges.reserve(attach + (n - attach - 1) * attach);
  for (NodeId v = 1; v <= attach; ++v) edges.emplace_back(0, v);
  const auto endpoint = [&edges](std::size_t k) {
    return k % 2 == 0 ? edges[k / 2].first : edges[k / 2].second;
  };
  std::vector<NodeId> chosen;
  chosen.reserve(attach);
  for (NodeId u = static_cast<NodeId>(attach + 1); u < n; ++u) {
    chosen.clear();
    std::uniform_int_distribution<std::size_t> pick(0, 2 * edges.size() - 1);
    while (chosen.size() < attach) {
      const NodeId v = endpoint(pick(rng));
      if (std::find(chosen.begin(), chosen.end(), v) != chosen.end()) continue;
      chosen.push_back(v);
    }
    for (const NodeId v : chosen) edges.emplace_back(u, v);
  }
  return Graph(n, edges);
}

std::vector<std::size_t> power_law_degrees(std::size_t n, double exponent,
                                           std::size_t min_degree, Rng& rng) {
  if (exponent <= 1.0) {
    throw std::invalid_argument("power_law_degrees: exponent <= 1");
  }
  if (min_degree == 0) {
    throw std::invalid_argument("power_law_degrees: min_degree >= 1");
  }
  if (n < 2 || min_degree >= n) {
    throw std::invalid_argument("power_law_degrees: need min_degree < n - 1");
  }
  const std::size_t max_degree = n - 1;
  std::vector<double> cdf;
  cdf.reserve(max_degree - min_degree + 1);
  double total = 0.0;
  for (std::size_t d = min_degree; d <= max_degree; ++d) {
    total += std::pow(static_cast<double>(d), -exponent);
    cdf.push_back(total);
  }
  std::vector<std::size_t> degrees(n);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (auto& deg : degrees) {
    const double x = unit(rng) * total;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), x);
    deg = min_degree + static_cast<std::size_t>(it - cdf.begin());
    if (deg > max_degree) deg = max_degree;
  }
  const std::size_t sum =
      std::accumulate(degrees.begin(), degrees.end(), std::size_t{0});
  if (sum % 2 != 0) {
    // All-max sequences have even sum n(n-1), so a bumpable entry exists.
    for (auto& deg : degrees) {
      if (deg < max_degree) {
        ++deg;
        break;
      }
    }
  }
  return degrees;
}

Graph configuration_model(std::span<const std::size_t> degrees, Rng& rng) {
  const std::size_t n = degrees.size();
  std::size_t sum = 0;
  for (const std::size_t d : degrees) {
    if (d >= n) throw std::invalid_argument("configuration_model: degree >= n");
    sum += d;
  }
  if (sum % 2 != 0) {
    throw std::invalid_argument("configuration_model: odd degree sum");
  }

  std::vector<NodeId> stubs;
  stubs.reserve(sum);
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t k = 0; k < degrees[v]; ++k) stubs.push_back(v);
  }
  std::shuffle(stubs.begin(), stubs.end(), rng);

  const auto norm = [](NodeId a, NodeId b) {
    return a < b ? std::pair<NodeId, NodeId>{a, b}
                 : std::pair<NodeId, NodeId>{b, a};
  };
  std::vector<std::pair<NodeId, NodeId>> accepted;
  std::set<std::pair<NodeId, NodeId>> present;
  std::vector<std::pair<NodeId, NodeId>> invalid;
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    const auto e = norm(stubs[i], stubs[i + 1]);
    if (e.first == e.second || present.count(e) != 0) {
      invalid.push_back(e);
    } else {
      accepted.push_back(e);
      present.insert(e);
    }
  }

  // Rewire each invalid pairing through a degree-preserving edge swap:
  // (a,b) bad + (c,d) accepted → (a,c) + (b,d), when both new edges are
  // simple and absent. The partner search starts at a random offset but
  // scans the whole accepted list, so a pair is dropped (its endpoints
  // lose one stub each) only when no landing swap exists at all.
  for (const auto& [a, b] : invalid) {
    if (accepted.empty()) break;
    std::uniform_int_distribution<std::size_t> pick(0, accepted.size() - 1);
    const std::size_t start = pick(rng);
    for (std::size_t step = 0; step < accepted.size(); ++step) {
      const std::size_t j = (start + step) % accepted.size();
      const auto [c, d] = accepted[j];
      const auto e1 = norm(a, c);
      const auto e2 = norm(b, d);
      if (a == c || b == d || e1 == e2 || present.count(e1) != 0 ||
          present.count(e2) != 0) {
        continue;
      }
      present.erase(accepted[j]);
      accepted[j] = e1;
      present.insert(e1);
      accepted.push_back(e2);
      present.insert(e2);
      break;
    }
  }

  Graph g(n, accepted);

  // Connectivity repair: breadth-first sweep from node 0; every later
  // component is bridged to node 0's component via its least node, and
  // the graph is rebuilt once with the bridges.
  std::vector<bool> seen(n, false);
  std::vector<NodeId> queue;
  const auto flood = [&](NodeId start) {
    queue.clear();
    queue.push_back(start);
    seen[start] = true;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (const NodeId w : g.neighbors(queue[head])) {
        if (!seen[w]) {
          seen[w] = true;
          queue.push_back(w);
        }
      }
    }
  };
  if (n > 0) flood(0);
  const std::size_t simple = accepted.size();
  for (NodeId v = 1; v < n; ++v) {
    if (!seen[v]) {
      accepted.emplace_back(0, v);
      flood(v);
    }
  }
  if (accepted.size() == simple) return g;
  return Graph(n, accepted);
}

Graph random_power_law(std::size_t n, double exponent, std::size_t min_degree,
                       Rng& rng) {
  const auto degrees = power_law_degrees(n, exponent, min_degree, rng);
  return configuration_model(degrees, rng);
}

std::string TopologyFamily::name() const {
  char buf[64];
  switch (kind) {
    case Kind::kUniform:
      return "uniform";
    case Kind::kGnp:
      std::snprintf(buf, sizeof buf, "gnp(%g)", p);
      return buf;
    case Kind::kPowerLaw:
      std::snprintf(buf, sizeof buf, "power-law(m=%zu)", attach);
      return buf;
    case Kind::kConfigModel:
      std::snprintf(buf, sizeof buf, "config(%g,%zu)", exponent, min_degree);
      return buf;
    case Kind::kGrid:
      return "grid";
    case Kind::kRing:
      return "ring";
  }
  throw std::logic_error("TopologyFamily::name: bad kind");
}

Graph TopologyFamily::make(std::size_t n, std::uint64_t seed) const {
  Rng rng(seed);
  switch (kind) {
    case Kind::kUniform:
      return random_uniform(n, rng);
    case Kind::kGnp:
      return random_gnp(n, p, rng);
    case Kind::kPowerLaw:
      return barabasi_albert(n, attach, rng);
    case Kind::kConfigModel:
      return random_power_law(n, exponent, min_degree, rng);
    case Kind::kGrid: {
      std::size_t rows = 1;
      for (std::size_t r = 1; r * r <= n; ++r) {
        if (n % r == 0) rows = r;
      }
      return optrt::graph::grid(rows, n / rows);
    }
    case Kind::kRing:
      return optrt::graph::ring(n);
  }
  throw std::logic_error("TopologyFamily::make: bad kind");
}

TopologyFamily TopologyFamily::uniform() { return {}; }

TopologyFamily TopologyFamily::gnp(double p) {
  TopologyFamily f;
  f.kind = Kind::kGnp;
  f.p = p;
  return f;
}

TopologyFamily TopologyFamily::power_law(std::size_t attach) {
  TopologyFamily f;
  f.kind = Kind::kPowerLaw;
  f.attach = attach;
  return f;
}

TopologyFamily TopologyFamily::config_model(double exponent,
                                            std::size_t min_degree) {
  TopologyFamily f;
  f.kind = Kind::kConfigModel;
  f.exponent = exponent;
  f.min_degree = min_degree;
  return f;
}

TopologyFamily TopologyFamily::grid() {
  TopologyFamily f;
  f.kind = Kind::kGrid;
  return f;
}

TopologyFamily TopologyFamily::ring() {
  TopologyFamily f;
  f.kind = Kind::kRing;
  return f;
}

TopologyFamily TopologyFamily::parse(const std::string& spec) {
  const auto bad = [&spec]() -> TopologyFamily {
    throw std::invalid_argument("TopologyFamily::parse: bad spec '" + spec +
                                "' (want uniform | gnp:<p> | ba:<attach> | "
                                "config:<exponent>,<min_degree> | grid | "
                                "ring)");
  };
  if (spec == "uniform") return uniform();
  if (spec == "grid") return grid();
  if (spec == "ring") return ring();
  const auto colon = spec.find(':');
  const std::string head = spec.substr(0, colon);
  const std::string rest =
      colon == std::string::npos ? std::string{} : spec.substr(colon + 1);
  try {
    if (head == "gnp" && !rest.empty()) {
      std::size_t used = 0;
      const double p = std::stod(rest, &used);
      if (used != rest.size() || p < 0.0 || p > 1.0) return bad();
      return gnp(p);
    }
    if ((head == "ba" || head == "power-law") && !rest.empty()) {
      std::size_t used = 0;
      const unsigned long attach = std::stoul(rest, &used);
      if (used != rest.size() || attach == 0) return bad();
      return power_law(attach);
    }
    if (head == "config" && !rest.empty()) {
      const auto comma = rest.find(',');
      if (comma == std::string::npos) return bad();
      std::size_t used = 0;
      const std::string exp_str = rest.substr(0, comma);
      const std::string deg_str = rest.substr(comma + 1);
      if (exp_str.empty() || deg_str.empty()) return bad();
      const double exponent = std::stod(exp_str, &used);
      if (used != exp_str.size() || exponent <= 1.0) return bad();
      const unsigned long min_degree = std::stoul(deg_str, &used);
      if (used != deg_str.size() || min_degree == 0) return bad();
      return config_model(exponent, min_degree);
    }
  } catch (const std::logic_error&) {
    return bad();
  }
  return bad();
}

Graph lower_bound_gb(std::size_t k) {
  if (k == 0) throw std::invalid_argument("lower_bound_gb: need k >= 1");
  std::vector<Edge> edges;
  for (NodeId mid = static_cast<NodeId>(k); mid < 2 * k; ++mid) {
    for (NodeId bottom = 0; bottom < k; ++bottom) {
      edges.emplace_back(bottom, mid);
    }
    edges.emplace_back(mid, static_cast<NodeId>(mid + k));
  }
  return Graph(3 * k, edges);
}

Graph lower_bound_gb_permuted(std::size_t k, const std::vector<NodeId>& perm) {
  if (k == 0) throw std::invalid_argument("lower_bound_gb_permuted: k >= 1");
  if (perm.size() != k) {
    throw std::invalid_argument("lower_bound_gb_permuted: |perm| != k");
  }
  std::vector<bool> seen(k, false);
  for (NodeId p : perm) {
    if (p >= k || seen[p]) {
      throw std::invalid_argument("lower_bound_gb_permuted: not a permutation");
    }
    seen[p] = true;
  }
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < k; ++i) {
    const auto mid = static_cast<NodeId>(k + i);
    for (NodeId bottom = 0; bottom < k; ++bottom) {
      edges.emplace_back(bottom, mid);
    }
    edges.emplace_back(mid, static_cast<NodeId>(2 * k + perm[i]));
  }
  return Graph(3 * k, edges);
}

}  // namespace optrt::graph
