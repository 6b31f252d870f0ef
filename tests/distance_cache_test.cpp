// DistanceCache tests: hit/miss accounting, LRU eviction, correctness
// against uncached BFS on random and adversarial graphs, and concurrent
// access safety under the thread pool (run under TSan by the tsan preset).
// Also DistanceMatrix::apply_link_delta, the in-place patch churn repair
// runs, held entry for entry against a fresh all-pairs BFS.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

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
  // again). One matrix runs the default fallback fraction, a second runs
  // fraction 0, where every delete must recompute and list every row.
  Rng gnp_rng(4), ba_rng(5);
  std::vector<std::pair<std::string, Graph>> cases;
  cases.emplace_back("grid(8,8)", grid(8, 8));
  cases.emplace_back("ring(40)", ring(40));
  cases.emplace_back("gnp(48,0.08)", random_gnp(48, 0.08, gnp_rng));
  cases.emplace_back("ba:2(96)", barabasi_albert(96, 2, ba_rng));
  for (auto& [name, g] : cases) {
    SCOPED_TRACE(name);
    const std::size_t n = g.node_count();
    std::vector<NodeId> every_row(n);
    std::iota(every_row.begin(), every_row.end(), NodeId{0});
    DistanceMatrix dist(g);
    DistanceMatrix dist_all_rows(g);
    Rng rng(17);
    std::size_t adds = 0, removes = 0, splits = 0;
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
      expect_same_matrix(dist, fresh);
      std::vector<NodeId> changed;
      bool split = false;
      for (NodeId s = 0; s < n; ++s) {
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
        EXPECT_GE(delta.rows_bfs, changed.size());
        EXPECT_LE(delta.rows_bfs, n);
        splits += split ? 1 : 0;
      }

      const DistanceMatrix::LinkDelta all =
          dist_all_rows.apply_link_delta(g, a, b, up, 0.0);
      expect_same_matrix(dist_all_rows, fresh);
      if (!up) {
        EXPECT_EQ(all.rows_bfs, n);
        EXPECT_EQ(all.changed_rows, every_row);
      }
    }
    EXPECT_GT(adds, 0u);
    EXPECT_GT(removes, 0u);
    EXPECT_GT(splits, 0u);  // some removes disconnect a pair
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
