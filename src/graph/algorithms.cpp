#include "graph/algorithms.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace optrt::graph {

namespace {

// BFS from `source` into dist[0, n); returns the source's eccentricity, or
// kUnreachable when some node is not reached. Each node is queued at most
// once, so the FIFO never grows: the loop stores only ids and distances,
// and the graph's slice pointers stay in registers.
std::uint32_t bfs_row(const Graph& g, NodeId source, std::uint32_t* dist,
                      std::vector<NodeId>& queue) {
  const std::size_t n = g.node_count();
  std::fill(dist, dist + n, kUnreachable);
  queue.resize(n);
  std::size_t head = 0;
  std::size_t tail = 0;
  dist[source] = 0;
  queue[tail++] = source;
  while (head < tail) {
    const NodeId u = queue[head++];
    for (NodeId v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue[tail++] = v;
      }
    }
  }
  return tail == n ? dist[queue[tail - 1]] : kUnreachable;
}

// One bit-parallel BFS over up to 64 sources of a connected graph (Then
// et al., PVLDB 8(4), 2014): bit i of a node's masks stands for
// sources[i]. Each level visits every node x that has not seen every
// source: visit(x, frontier, unseen, level) pulls x's new bits, those of
// its distance-`level` sources, out of its neighbours' frontier words,
// records them and returns them. Connectivity means every pair other than
// (sources[i], sources[i]) is recorded once. Kept out of line: inlined
// into its caller's pass loop, the distance sweep's OR loop spilled the
// frontier pointer and DistanceMatrix ran ~20 % slower on G(256, ½).
template <class Visit>
[[gnu::noinline]] void bit_parallel_sweep(const Graph& g,
                                          std::span<const NodeId> sources,
                                          Visit visit) {
  const std::size_t n = g.node_count();
  const std::size_t k = sources.size();
  const std::uint64_t all =
      k == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1;
  std::vector<std::uint64_t> seen(n, 0);
  std::vector<std::uint64_t> frontier(n, 0);
  std::vector<std::uint64_t> next(n, 0);
  for (std::size_t i = 0; i < k; ++i) {
    seen[sources[i]] |= std::uint64_t{1} << i;
    frontier[sources[i]] |= std::uint64_t{1} << i;
  }
  std::size_t unseen = k * n - k;
  for (std::uint32_t level = 1; unseen > 0; ++level) {
    for (NodeId x = 0; x < n; ++x) {
      std::uint64_t fresh = 0;
      if (seen[x] != all) {
        fresh = visit(x, frontier.data(), all & ~seen[x], level);
        seen[x] |= fresh;
        unseen -= static_cast<std::size_t>(std::popcount(fresh));
      }
      next[x] = fresh;
    }
    frontier.swap(next);
  }
}

// Runs sources[0] through row(0), which returns its eccentricity or
// kUnreachable. On a connected graph of that eccentricity e no source's
// eccentricity exceeds 2e, so a pass of more than 2e further sources runs
// as one sweep, pass(first, count), in at most 2e levels; every other
// source runs through row(i). Returns how many sources the sweeps took.
template <class Row, class Pass>
std::size_t in_passes(std::span<const NodeId> sources, Row row, Pass pass) {
  constexpr std::size_t kPass = 64;
  if (sources.empty()) return 0;
  const std::uint32_t ecc = row(0);
  const std::size_t max_levels = ecc == kUnreachable
                                     ? std::numeric_limits<std::size_t>::max()
                                     : 2 * static_cast<std::size_t>(ecc);
  std::size_t swept = 0;
  for (std::size_t p = 1; p < sources.size(); p += kPass) {
    const std::size_t count = std::min(kPass, sources.size() - p);
    if (max_levels < count) {
      pass(p, count);
      swept += count;
      continue;
    }
    for (std::size_t i = p; i < p + count; ++i) (void)row(i);
  }
  return swept;
}

}  // namespace

std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source) {
  std::vector<std::uint32_t> dist(g.node_count());
  std::vector<NodeId> queue;
  (void)bfs_row(g, source, dist.data(), queue);
  return dist;
}

std::size_t bfs_rows(const Graph& g, std::span<const NodeId> sources,
                     std::span<std::uint32_t> out) {
  const std::size_t n = g.node_count();
  std::vector<NodeId> queue;
  return in_passes(
      sources,
      [&](std::size_t i) {
        return bfs_row(g, sources[i], out.data() + i * n, queue);
      },
      [&](std::size_t first, std::size_t count) {
        const auto pass = sources.subspan(first, count);
        std::uint32_t* rows = out.data() + first * n;
        for (std::size_t i = 0; i < count; ++i) rows[i * n + pass[i]] = 0;
        // The branch-free OR over the whole slice: distances need only
        // which bits arrive, not through which port.
        bit_parallel_sweep(
            g, pass,
            [&](NodeId x, const std::uint64_t* frontier, std::uint64_t unseen,
                std::uint32_t level) {
              std::uint64_t fresh = 0;
              for (NodeId y : g.neighbors(x)) fresh |= frontier[y];
              fresh &= unseen;
              for (std::uint64_t bits = fresh; bits != 0; bits &= bits - 1) {
                rows[static_cast<std::size_t>(std::countr_zero(bits)) * n +
                     x] = level;
              }
              return fresh;
            });
      });
}

void least_ports(const Graph& g, std::span<const NodeId> targets,
                 std::span<std::uint32_t> out) {
  const std::size_t n = g.node_count();
  const std::size_t k = targets.size();
  std::vector<NodeId> queue;
  std::vector<std::uint32_t> row(n);
  (void)in_passes(
      targets,
      [&](std::size_t i) {
        // One BFS row, then each reached w scans its sorted neighbours for
        // the first one a step closer: its rank is the port.
        const std::uint32_t ecc = bfs_row(g, targets[i], row.data(), queue);
        for (NodeId w = 0; w < n; ++w) {
          if (row[w] == 0 || row[w] == kUnreachable) continue;
          const auto nbrs = g.neighbors(w);
          std::uint32_t p = 0;
          while (row[nbrs[p]] + 1 != row[w]) ++p;
          out[w * k + i] = p;
        }
        return ecc;
      },
      [&](std::size_t first, std::size_t count) {
        bit_parallel_sweep(
            g, targets.subspan(first, count),
            [&](NodeId x, const std::uint64_t* frontier, std::uint64_t unseen,
                std::uint32_t) {
              // Ports in sorted order: a target's bit is taken at the
              // first port whose neighbour carries it in the frontier.
              std::uint32_t* ports = out.data() + x * k + first;
              const auto nbrs = g.neighbors(x);
              std::uint64_t fresh = 0;
              for (std::uint32_t p = 0; p < nbrs.size(); ++p) {
                const std::uint64_t hit = frontier[nbrs[p]] & unseen & ~fresh;
                if (hit == 0) continue;
                fresh |= hit;
                for (std::uint64_t bits = hit; bits != 0; bits &= bits - 1) {
                  ports[std::countr_zero(bits)] = p;
                }
                if (fresh == unseen) break;
              }
              return fresh;
            });
      });
}

DistanceMatrix::DistanceMatrix(const Graph& g)
    : n_(g.node_count()), d_(n_ * n_) {
  std::vector<NodeId> sources(n_);
  std::iota(sources.begin(), sources.end(), NodeId{0});
  (void)bfs_rows(g, sources, d_);
}

DistanceMatrix::LinkDelta DistanceMatrix::apply_link_delta(
    const Graph& g_new, NodeId u, NodeId v, bool up) {
  LinkDelta delta;
  if (up) {
    // Rows u and v are snapshotted first: they may themselves improve.
    const std::vector<std::uint32_t> old_du(patch_row(u), patch_row(u) + n_);
    const std::vector<std::uint32_t> old_dv(patch_row(v), patch_row(v) + n_);
    for (NodeId s = 0; s < n_; ++s) {
      const std::uint32_t dsu = old_du[s];  // symmetry: d(s, u) = d(u, s)
      const std::uint32_t dsv = old_dv[s];
      bool changed = false;
      std::uint32_t* ds = patch_row(s);
      for (NodeId t = 0; t < n_; ++t) {
        std::uint32_t best = ds[t];
        if (dsu != kUnreachable && old_dv[t] != kUnreachable) {
          best = std::min(best, dsu + 1 + old_dv[t]);
        }
        if (dsv != kUnreachable && old_du[t] != kUnreachable) {
          best = std::min(best, dsv + 1 + old_du[t]);
        }
        if (best < ds[t]) {
          ds[t] = best;
          changed = true;
        }
      }
      if (changed) delta.changed_rows.push_back(s);
    }
    delta.rows_patched = delta.changed_rows.size();
    return delta;
  }

  // Delete: re-BFS the sources whose shortest-path DAG held the edge.
  std::vector<NodeId> candidates;
  for (NodeId s = 0; s < n_; ++s) {
    const std::uint32_t dsu = at(s, u);
    const std::uint32_t dsv = at(s, v);
    if (dsu == kUnreachable || dsv == kUnreachable) continue;
    if (dsu + 1 == dsv || dsv + 1 == dsu) candidates.push_back(s);
  }
  std::vector<std::uint32_t> fresh(candidates.size() * n_);
  (void)bfs_rows(g_new, candidates, fresh);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const std::uint32_t* row = fresh.data() + i * n_;
    if (!std::equal(row, row + n_, patch_row(candidates[i]))) {
      std::copy(row, row + n_, patch_row(candidates[i]));
      delta.changed_rows.push_back(candidates[i]);
    }
  }
  delta.rows_bfs = candidates.size();
  return delta;
}

std::uint32_t DistanceMatrix::diameter() const noexcept {
  std::uint32_t best = 0;
  for (std::uint32_t x : d_) {
    if (x == kUnreachable) return kUnreachable;
    best = std::max(best, x);
  }
  return best;
}

bool DistanceMatrix::connected() const noexcept {
  return std::none_of(d_.begin(), d_.end(),
                      [](std::uint32_t x) { return x == kUnreachable; });
}

std::vector<NodeId> shortest_path_successors(const Graph& g,
                                             const DistanceMatrix& dist,
                                             NodeId u, NodeId v) {
  std::vector<NodeId> out;
  const std::uint32_t duv = dist.at(u, v);
  if (duv == 0 || duv == kUnreachable) return out;
  for (NodeId w : g.neighbors(u)) {
    if (dist.at(w, v) + 1 == duv) out.push_back(w);
  }
  return out;
}

bool is_connected(const Graph& g) {
  if (g.node_count() == 0) return true;
  const auto dist = bfs_distances(g, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](std::uint32_t x) { return x == kUnreachable; });
}

namespace {

// FNV-1a over the packed adjacency words, from two different offset bases
// so the pair behaves like one 128-bit hash.
std::uint64_t fnv1a_words(const Graph& g, std::uint64_t h) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (std::uint64_t word : g.row_words(u)) {
      for (int shift = 0; shift < 64; shift += 8) {
        h ^= (word >> shift) & 0xff;
        h *= kPrime;
      }
    }
  }
  return h;
}

}  // namespace

GraphFingerprint fingerprint(const Graph& g) {
  GraphFingerprint f;
  f.n = g.node_count();
  f.lo = fnv1a_words(g, 0xcbf29ce484222325ULL ^ f.n);
  f.hi = fnv1a_words(g, 0x6c62272e07bb0142ULL ^ (f.n * 0x9e3779b97f4a7c15ULL));
  return f;
}

DistanceCache::DistanceCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

std::shared_ptr<const DistanceMatrix> DistanceCache::get(const Graph& g) {
  const GraphFingerprint key = fingerprint(g);
  std::shared_ptr<Entry> entry;
  bool missed = false;
  bool evicted = false;
  std::size_t size_after = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      lru_.push_front(key);
      entry = std::make_shared<Entry>();
      entries_.emplace(key, std::make_pair(entry, lru_.begin()));
      ++misses_;
      missed = true;
      if (entries_.size() > capacity_) {
        // Evict the least-recently-used entry; in-flight holders keep the
        // matrix alive through their shared_ptr.
        entries_.erase(lru_.back());
        lru_.pop_back();
        evicted = true;
      }
    } else {
      entry = it->second.first;
      lru_.splice(lru_.begin(), lru_, it->second.second);
      ++hits_;
    }
    size_after = entries_.size();
  }
  // Registry updates happen outside the cache lock: obs takes its own
  // mutex and must never nest inside ours.
  auto& reg = obs::MetricsRegistry::global();
  reg.counter(missed ? "graph.distance_cache.misses"
                     : "graph.distance_cache.hits")
      .inc();
  if (evicted) reg.counter("graph.distance_cache.evictions").inc();
  reg.gauge("graph.distance_cache.size")
      .set(static_cast<std::int64_t>(size_after));
  // BFS runs outside the cache lock; call_once makes concurrent misses on
  // the same graph compute it exactly once.
  std::call_once(entry->once, [&] {
    obs::TraceSpan span("graph.distance_matrix.build");
    entry->dist = std::make_shared<DistanceMatrix>(g);
  });
  return entry->dist;
}

std::size_t DistanceCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t DistanceCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t DistanceCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

void DistanceCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  hits_ = 0;
  misses_ = 0;
}

DistanceCache& DistanceCache::global() {
  static DistanceCache cache(16);
  return cache;
}

}  // namespace optrt::graph
