// Shortest-path machinery: BFS, all-pairs distances, diameter, and the
// shortest-path successor sets that full-information routing (Theorem 10)
// and the scheme verifier need.
#pragma once

#include <cstdint>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/graph.hpp"

namespace optrt::graph {

/// Distance value for unreachable pairs.
inline constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();

/// BFS distances from `source` (kUnreachable where disconnected).
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const Graph& g,
                                                       NodeId source);

/// BFS rows from many sources: out[i·n, (i+1)·n) receives
/// bfs_distances(g, sources[i]), n = g.node_count(). The first source's
/// row comes from BFS. When it shows a connected graph of eccentricity e,
/// no source's eccentricity exceeds 2e, and the remaining sources run in
/// passes of up to 64; a pass of more than 2e sources runs as one
/// bit-parallel BFS (Then et al., "The More the Merrier: Efficient
/// Multi-Source Graph Traversal", PVLDB 8(4), 2014) — a 64-bit seen and
/// frontier mask per node, one pull sweep per level in which each node ORs
/// its neighbours' frontier words, at most 2e sweeps where per-row BFS
/// would take one per source. Every other pass, and every pass on a
/// disconnected graph, runs per-row BFS. least_ports runs the same passes
/// and the same sweep. Returns how many rows came from bit-parallel
/// passes. Precondition: out.size() == sources.size() · n.
std::size_t bfs_rows(const Graph& g, std::span<const NodeId> sources,
                     std::span<std::uint32_t> out);

/// Every node's port toward every target, k = targets.size():
/// out[w·k + i] receives the rank, in w's sorted neighbours, of w's least
/// neighbour one step closer to targets[i], so w's ports are one row in
/// target order. Nothing is written at a target itself or at a node the
/// target does not reach. The passes are bfs_rows': in a bit-parallel
/// pass's sweep, node w scans its ports in order and takes, for each
/// target bit, the first port whose neighbour carries that bit in the
/// frontier; a per-row pass scans w's neighbours against one BFS row.
/// Precondition: out.size() == k · n.
void least_ports(const Graph& g, std::span<const NodeId> targets,
                 std::span<std::uint32_t> out);

/// All-pairs shortest-path distances, as a flat n×n row-major matrix.
/// The one all-pairs type: DistanceCache shares immutable instances, and
/// full-table churn repair keeps a private one current through
/// apply_link_delta.
class DistanceMatrix {
 public:
  explicit DistanceMatrix(const Graph& g);

  /// What one apply_link_delta changed, and the rows it spent.
  struct LinkDelta {
    std::vector<NodeId> changed_rows;  ///< sorted, rows with any change
    std::uint64_t rows_bfs = 0;        ///< rows recomputed by BFS
    std::uint64_t rows_patched = 0;    ///< rows fixed by the min-plus patch
  };

  /// Folds the link delta {u, v} (`up`: inserted, else deleted) into the
  /// matrix in place; `g_new` is the graph *including* the change, and
  /// the matrix must describe it as it was before.
  ///   insert — exact one-step min-plus patch against the old matrix,
  ///     d'(s, t) = min(d(s,t), d(s,u)+1+d(v,t), d(s,v)+1+d(u,t)),
  ///     sound because a new shortest path crosses {u, v} at most once;
  ///   delete — only sources s with |d(s,u) − d(s,v)| == 1 can lose a
  ///     shortest path (the edge lies on s's shortest-path DAG iff its
  ///     endpoints sit on consecutive BFS levels); exactly those rows are
  ///     re-run through BFS on `g_new`, and those that differ are listed.
  ///     The candidate set is closed under "my row changed", so the matrix
  ///     stays symmetric and exact.
  LinkDelta apply_link_delta(const Graph& g_new, NodeId u, NodeId v, bool up);

  [[nodiscard]] std::uint32_t at(NodeId u, NodeId v) const noexcept {
    return d_[static_cast<std::size_t>(u) * n_ + v];
  }
  /// Row s: d(s, ·), which is also d(·, s).
  [[nodiscard]] std::span<const std::uint32_t> row(NodeId s) const noexcept {
    return {d_.data() + static_cast<std::size_t>(s) * n_, n_};
  }
  [[nodiscard]] std::size_t node_count() const noexcept { return n_; }

  /// Max finite distance; kUnreachable if the graph is disconnected,
  /// 0 for graphs with < 2 nodes.
  [[nodiscard]] std::uint32_t diameter() const noexcept;

  /// True iff every pair is connected.
  [[nodiscard]] bool connected() const noexcept;

 private:
  /// Row s, for in-place patching.
  [[nodiscard]] std::uint32_t* patch_row(NodeId s) noexcept {
    return d_.data() + static_cast<std::size_t>(s) * n_;
  }

  std::size_t n_;
  std::vector<std::uint32_t> d_;
};

/// All neighbours of `u` that lie on a shortest path from `u` to `v`
/// (the full-information answer set of §1): w adjacent to u with
/// d(w, v) = d(u, v) − 1. Empty when v == u or v unreachable.
[[nodiscard]] std::vector<NodeId> shortest_path_successors(
    const Graph& g, const DistanceMatrix& dist, NodeId u, NodeId v);

/// True iff the graph is connected.
[[nodiscard]] bool is_connected(const Graph& g);

/// 128-bit structural fingerprint of a graph: node count plus two
/// independent hashes of the packed adjacency matrix. Equal graphs always
/// collide; distinct graphs collide with probability ~2⁻¹²⁸.
struct GraphFingerprint {
  std::uint64_t n = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const GraphFingerprint&,
                         const GraphFingerprint&) noexcept = default;
};
[[nodiscard]] GraphFingerprint fingerprint(const Graph& g);

/// Process-wide memo of all-pairs BFS keyed by graph fingerprint, so the
/// verifier, the simulator, the full-table, full-information, k-interval
/// and Theorem 10 builders, and the benches compute each graph's
/// DistanceMatrix once instead of once per caller. The landmark, TZ and
/// hierarchical builders read none: their distances come from bounded
/// BFS (schemes/landmark_table.hpp). Thread-safe: concurrent
/// get() calls for the same graph compute the matrix exactly once (others
/// block until it is ready); matrices for distinct graphs are computed
/// concurrently without serializing on the cache lock. Entries are evicted
/// LRU beyond `capacity`; returned shared_ptrs stay valid regardless.
class DistanceCache {
 public:
  explicit DistanceCache(std::size_t capacity = 16);

  /// The distance matrix of `g`, computed on first use.
  [[nodiscard]] std::shared_ptr<const DistanceMatrix> get(const Graph& g);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  void clear();

  /// The shared process-wide instance.
  static DistanceCache& global();

 private:
  struct Entry {
    std::once_flag once;
    std::shared_ptr<const DistanceMatrix> dist;
  };
  struct KeyHash {
    std::size_t operator()(const GraphFingerprint& f) const noexcept {
      return static_cast<std::size_t>(f.lo ^ (f.hi * 0x9e3779b97f4a7c15ULL));
    }
  };

  std::size_t capacity_;
  mutable std::mutex mu_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::list<GraphFingerprint> lru_;  // front = most recent
  std::unordered_map<GraphFingerprint,
                     std::pair<std::shared_ptr<Entry>,
                               std::list<GraphFingerprint>::iterator>,
                     KeyHash>
      entries_;
};

}  // namespace optrt::graph
