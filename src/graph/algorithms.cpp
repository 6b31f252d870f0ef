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

// Rows for up to 64 sources of a connected graph in one bit-parallel BFS:
// bit i of a node's masks stands for sources[i]. Each level pulls the
// frontier bits of every neighbour into each node that has not seen every
// source; a node's new bits are its distance-`level` sources. Connectivity
// means every entry of every row is written, so none is filled first.
void bfs_rows_bit_parallel(const Graph& g, std::span<const NodeId> sources,
                           std::uint32_t* out) {
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
    out[i * n + sources[i]] = 0;
  }
  std::size_t unseen = k * n - k;
  for (std::uint32_t level = 1; unseen > 0; ++level) {
    for (NodeId x = 0; x < n; ++x) {
      std::uint64_t fresh = 0;
      if (seen[x] != all) {
        for (NodeId y : g.neighbors(x)) fresh |= frontier[y];
        fresh &= ~seen[x];
        seen[x] |= fresh;
        unseen -= static_cast<std::size_t>(std::popcount(fresh));
        for (std::uint64_t bits = fresh; bits != 0; bits &= bits - 1) {
          out[static_cast<std::size_t>(std::countr_zero(bits)) * n + x] =
              level;
        }
      }
      next[x] = fresh;
    }
    frontier.swap(next);
  }
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
  constexpr std::size_t kPass = 64;
  if (sources.empty()) return 0;
  const std::size_t n = g.node_count();
  std::vector<NodeId> queue;
  // On a connected graph every eccentricity is at most twice the first
  // source's, which bounds the levels of every bit-parallel pass.
  const std::uint32_t ecc = bfs_row(g, sources[0], out.data(), queue);
  const std::size_t max_levels = ecc == kUnreachable
                                     ? std::numeric_limits<std::size_t>::max()
                                     : 2 * static_cast<std::size_t>(ecc);
  std::size_t bit_parallel_rows = 0;
  for (std::size_t p = 1; p < sources.size(); p += kPass) {
    const auto pass = sources.subspan(p, std::min(kPass, sources.size() - p));
    std::uint32_t* rows = out.data() + p * n;
    if (max_levels < pass.size()) {
      bfs_rows_bit_parallel(g, pass, rows);
      bit_parallel_rows += pass.size();
      continue;
    }
    for (std::size_t i = 0; i < pass.size(); ++i) {
      (void)bfs_row(g, pass[i], rows + i * n, queue);
    }
  }
  return bit_parallel_rows;
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
