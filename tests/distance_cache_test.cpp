// DistanceCache tests: hit/miss accounting, LRU eviction, correctness
// against uncached BFS on random and adversarial graphs, and concurrent
// access safety under the thread pool (run under TSan by the tsan preset).
// Also DistanceMatrix::apply_link_delta, the in-place patch full-table
// churn repair runs, held entry for entry against a fresh all-pairs BFS.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/parallel.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace optrt::graph {
namespace {

void expect_matches_bfs(const Graph& g, const DistanceMatrix& dist) {
  ASSERT_EQ(dist.node_count(), g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto row = bfs_distances(g, u);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      ASSERT_EQ(dist.at(u, v), row[v]) << "pair (" << u << ", " << v << ")";
    }
  }
}

void expect_same_matrix(const DistanceMatrix& got, const DistanceMatrix& want) {
  ASSERT_EQ(got.node_count(), want.node_count());
  for (NodeId u = 0; u < want.node_count(); ++u) {
    for (NodeId v = 0; v < want.node_count(); ++v) {
      ASSERT_EQ(got.at(u, v), want.at(u, v)) << "pair (" << u << ", " << v
                                             << ")";
    }
  }
}

TEST(DistanceMatrix, LinkDeltasMatchAFreshBfs) {
  // 120 seeded toggles per graph: the first 60 remove a live link with
  // probability 2/3 (thinning the graph until removes split components),
  // the last 60 add a missing one with probability 2/3 (joining them
  // again). A delete recomputes exactly its candidate rows, the sources s
  // with |d(s,u) − d(s,v)| = 1, and lists only those that changed. The
  // rows each case spends are pinned: the candidate rule decides them,
  // whichever BFS kernel recomputes the rows.
  Rng gnp_rng(4), ba_rng(5);
  std::vector<std::pair<std::string, Graph>> cases;
  cases.emplace_back("grid(8,8)", grid(8, 8));
  cases.emplace_back("ring(40)", ring(40));
  cases.emplace_back("gnp(48,0.08)", random_gnp(48, 0.08, gnp_rng));
  cases.emplace_back("ba:2(96)", barabasi_albert(96, 2, ba_rng));
  // {Σ rows_bfs, Σ rows_patched} per case.
  const std::pair<std::uint64_t, std::uint64_t> pinned_rows[] = {
      {3601, 1689}, {1013, 575}, {2050, 918}, {4707, 1425}};
  std::size_t case_index = 0;
  for (auto& [name, g] : cases) {
    SCOPED_TRACE(name);
    const std::size_t n = g.node_count();
    DistanceMatrix dist(g);
    Rng rng(17);
    std::size_t adds = 0, removes = 0, splits = 0;
    std::uint64_t rows_bfs = 0, rows_patched = 0;
    for (int step = 0; step < 120; ++step) {
      const bool up =
          g.edge_count() == 0 || (rng() % 3 == 0) == (step < 60);
      NodeId a = 0, b = 0;
      if (up) {
        do {
          a = static_cast<NodeId>(rng() % n);
          b = static_cast<NodeId>(rng() % n);
        } while (a == b || g.has_edge(a, b));
        g.add_edge(a, b);
        ++adds;
      } else {
        // A uniform non-isolated node drops a uniform link: low-degree
        // nodes lose links as often as hubs, so some removes isolate one.
        do {
          a = static_cast<NodeId>(rng() % n);
        } while (g.degree(a) == 0);
        b = g.neighbors(a)[rng() % g.degree(a)];
        g.remove_edge(a, b);
        ++removes;
      }
      const DistanceMatrix before = dist;
      const DistanceMatrix fresh(g);
      const DistanceMatrix::LinkDelta delta =
          dist.apply_link_delta(g, a, b, up);
      rows_bfs += delta.rows_bfs;
      rows_patched += delta.rows_patched;
      expect_same_matrix(dist, fresh);
      std::vector<NodeId> changed;
      std::uint64_t candidates = 0;
      bool split = false;
      for (NodeId s = 0; s < n; ++s) {
        const std::uint32_t dsa = before.at(s, a);
        const std::uint32_t dsb = before.at(s, b);
        if (dsa != kUnreachable && dsb != kUnreachable &&
            (dsa + 1 == dsb || dsb + 1 == dsa)) {
          ++candidates;
        }
        bool row_changed = false;
        for (NodeId t = 0; t < n; ++t) {
          row_changed = row_changed || before.at(s, t) != fresh.at(s, t);
          split = split || (before.at(s, t) != kUnreachable &&
                            fresh.at(s, t) == kUnreachable);
        }
        if (row_changed) changed.push_back(s);
      }
      EXPECT_EQ(delta.changed_rows, changed) << "step " << step;
      if (up) {
        EXPECT_EQ(delta.rows_bfs, 0u);
        EXPECT_EQ(delta.rows_patched, changed.size());
      } else {
        EXPECT_EQ(delta.rows_patched, 0u);
        EXPECT_EQ(delta.rows_bfs, candidates);
        splits += split ? 1 : 0;
      }
    }
    EXPECT_GT(adds, 0u);
    EXPECT_GT(removes, 0u);
    EXPECT_GT(splits, 0u);  // some removes disconnect a pair
    EXPECT_EQ(rows_bfs, pinned_rows[case_index].first);
    EXPECT_EQ(rows_patched, pinned_rows[case_index].second);
    ++case_index;
  }
}

/// Each row bfs_rows writes for `sources` equals bfs_distances; returns
/// how many of them came from bit-parallel passes.
std::size_t expect_rows_match_bfs(const Graph& g,
                                  const std::vector<NodeId>& sources) {
  const std::size_t n = g.node_count();
  std::vector<std::uint32_t> out(sources.size() * n, 7);
  const std::size_t bit_parallel = bfs_rows(g, sources, out);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const auto want = bfs_distances(g, sources[i]);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(out[i * n + v], want[v])
          << "source " << sources[i] << " (row " << i << "), node " << v;
    }
  }
  return bit_parallel;
}

TEST(DistanceRows, EveryRowMatchesBfs) {
  // Contiguous lists (all of 0..n−1, and through DistanceMatrix) and
  // scattered ones (a seeded draw with repeats, in no order) on graphs on
  // both sides of the bit-parallel choice: G(n, 1/2), star, ba:2 and
  // small grids run bit-parallel passes; chains, rings and two components
  // run per-row BFS.
  for (std::size_t n : {0u, 1u, 2u, 63u, 64u, 65u, 130u}) {
    std::vector<std::pair<std::string, Graph>> cases;
    cases.emplace_back("chain", chain(n));
    if (n >= 1) cases.emplace_back("star", star(n));
    if (n >= 3) cases.emplace_back("ring", ring(n));
    if (n >= 3) {
      Rng ba_rng(n);
      cases.emplace_back("ba:2", barabasi_albert(n, 2, ba_rng));
    }
    std::size_t rows = 1;
    while ((rows + 1) * (rows + 1) <= n) ++rows;
    while (rows > 1 && n % rows != 0) --rows;
    if (n > 0) cases.emplace_back("grid", grid(rows, n / rows));
    Rng gnp_rng(n + 1);
    Graph gnp = random_uniform(n, gnp_rng);
    if (n >= 63) gnp = core::certified_random_graph(n, gnp_rng);
    cases.emplace_back("G(n,1/2)", gnp);
    Graph split(n);  // a ring on the first half, a star on the rest
    for (NodeId u = 0; u + 1 < n / 2; ++u) split.add_edge(u, u + 1);
    if (n / 2 >= 3) split.add_edge(0, static_cast<NodeId>(n / 2 - 1));
    for (NodeId u = static_cast<NodeId>(n / 2 + 1); u < n; ++u) {
      split.add_edge(static_cast<NodeId>(n / 2), u);
    }
    cases.emplace_back("two components", split);

    for (const auto& [name, g] : cases) {
      SCOPED_TRACE(name + " n=" + std::to_string(n));
      std::vector<NodeId> all(n);
      std::iota(all.begin(), all.end(), NodeId{0});
      const std::size_t contiguous = expect_rows_match_bfs(g, all);
      expect_matches_bfs(g, DistanceMatrix(g));
      std::vector<NodeId> scattered;
      Rng pick(n * 31 + name.size());
      for (std::size_t i = 0; n > 0 && i < n + 7; ++i) {
        scattered.push_back(static_cast<NodeId>(pick() % n));
      }
      const std::size_t drawn = expect_rows_match_bfs(g, scattered);
      // Which side each family lands on, where a full pass of 64 decides.
      if (n >= 64) {
        const bool bit_parallel = name == "G(n,1/2)" || name == "star" ||
                                  name == "ba:2";
        const bool scalar = name == "chain" || name == "ring" ||
                            name == "two components";
        if (bit_parallel) {
          EXPECT_GT(contiguous, 0u);
          EXPECT_GT(drawn, 0u);
        }
        if (scalar) {
          EXPECT_EQ(contiguous, 0u);
          EXPECT_EQ(drawn, 0u);
        }
      }
    }
  }
}

TEST(GraphFingerprint, EqualGraphsCollideDifferentGraphsDoNot) {
  // Same edges inserted in different order → same fingerprint.
  Graph a(5), b(5);
  a.add_edge(0, 1);
  a.add_edge(2, 3);
  a.add_edge(1, 4);
  b.add_edge(1, 4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  EXPECT_EQ(fingerprint(a), fingerprint(b));

  Graph c(5);
  c.add_edge(0, 1);
  c.add_edge(2, 3);
  c.add_edge(2, 4);  // one different edge
  EXPECT_NE(fingerprint(a), fingerprint(c));

  // Same (empty) edge set, different node count.
  EXPECT_NE(fingerprint(Graph(4)), fingerprint(Graph(5)));
}

TEST(DistanceCache, HitAndMissAccounting) {
  DistanceCache cache(4);
  const Graph g = chain(10);
  const auto first = cache.get(g);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  const auto second = cache.get(g);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(first.get(), second.get());  // memoized, not recomputed

  // A structurally identical copy hits too — the key is the fingerprint.
  Graph copy(10);
  for (NodeId u = 0; u + 1 < 10; ++u) copy.add_edge(u, u + 1);
  EXPECT_EQ(cache.get(copy).get(), first.get());
  EXPECT_EQ(cache.hits(), 2u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(DistanceCache, CorrectOnRandomAndAdversarialGraphs) {
  DistanceCache cache(8);
  std::vector<Graph> graphs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    graphs.push_back(random_uniform(20, rng));
  }
  graphs.push_back(chain(17));  // max diameter
  graphs.push_back(star(9));    // hub concentration
  Graph disconnected(8);        // two components + isolated nodes
  disconnected.add_edge(0, 1);
  disconnected.add_edge(1, 2);
  disconnected.add_edge(4, 5);
  graphs.push_back(disconnected);
  graphs.push_back(Graph(1));   // degenerate
  for (const Graph& g : graphs) {
    expect_matches_bfs(g, *cache.get(g));
    expect_matches_bfs(g, *cache.get(g));  // cached copy stays correct
  }
}

TEST(DistanceCache, EvictsLeastRecentlyUsedBeyondCapacity) {
  DistanceCache cache(2);
  const Graph a = chain(5), b = ring(6), c = star(7);
  const auto dist_a = cache.get(a);
  (void)cache.get(b);
  (void)cache.get(a);  // refresh a; b is now LRU
  (void)cache.get(c);  // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 3u);
  (void)cache.get(a);  // still resident
  EXPECT_EQ(cache.hits(), 2u);
  (void)cache.get(b);  // evicted: recomputed
  EXPECT_EQ(cache.misses(), 4u);
  // The evicted entry's shared_ptr kept the matrix alive for holders.
  expect_matches_bfs(a, *dist_a);
}

TEST(DistanceCache, GlobalIsASingleton) {
  EXPECT_EQ(&DistanceCache::global(), &DistanceCache::global());
}

TEST(DistanceCache, ConcurrentReadsAndMissesAreSafe) {
  // 8 threads × 64 tasks hammer one cache over 4 graphs: concurrent
  // first-misses on the same graph must compute the matrix exactly once,
  // and concurrent readers must see a fully built matrix. TSan-checked.
  DistanceCache cache(4);
  std::vector<Graph> graphs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    graphs.push_back(random_uniform(24, rng));
  }
  core::ThreadPool pool(8);
  const auto checks = core::parallel_map<int>(pool, 64, [&](std::size_t i) {
    const Graph& g = graphs[i % graphs.size()];
    const auto dist = cache.get(g);
    int mismatches = 0;
    const NodeId u = static_cast<NodeId>(i % g.node_count());
    const auto row = bfs_distances(g, u);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (dist->at(u, v) != row[v]) ++mismatches;
    }
    return mismatches;
  });
  for (int m : checks) EXPECT_EQ(m, 0);
  EXPECT_EQ(cache.misses(), 4u);  // one compute per distinct graph
  EXPECT_EQ(cache.hits(), 60u);
}

}  // namespace
}  // namespace optrt::graph
