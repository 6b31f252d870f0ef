// Tests for the graph substrate: structure, the CSR slices and bit rows a
// Graph keeps in step, E(G) encoding (Definition 2), and generators
// including the Theorem 9 graph G_B.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/encoding.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace optrt::graph {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g(5);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.degree(0), 0u);
}

TEST(Graph, AddEdgeSymmetric) {
  Graph g(4);
  g.add_edge(1, 3);
  EXPECT_TRUE(g.has_edge(1, 3));
  EXPECT_TRUE(g.has_edge(3, 1));
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_EQ(g.degree(3), 1u);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, RejectsSelfLoopDuplicateOutOfRange) {
  Graph g(4);
  EXPECT_THROW(g.add_edge(2, 2), std::invalid_argument);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(1, 0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 4), std::invalid_argument);
}

TEST(Graph, NeighborsSortedEvenWithUnsortedInsertion) {
  Graph g(6);
  g.add_edge(3, 5);
  g.add_edge(3, 1);
  g.add_edge(3, 4);
  g.add_edge(3, 0);
  const auto nbrs = g.neighbors(3);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(Graph, RowWordsMatchHasEdge) {
  Rng rng(3);
  const Graph g = random_gnp(100, 0.3, rng);
  for (NodeId u = 0; u < 100; ++u) {
    const auto row = g.row_words(u);
    for (NodeId v = 0; v < 100; ++v) {
      const bool bit = (row[v >> 6] >> (v & 63)) & 1u;
      EXPECT_EQ(bit, g.has_edge(u, v));
    }
  }
}

TEST(Graph, RemoveEdgeMatchesAGraphBuiltWithoutIt) {
  // n = 70 spans two matrix words per row. Remove every third edge, in
  // either orientation, and check each step and the final structure.
  Rng rng(9);
  Graph g = random_gnp(70, 0.2, rng);
  Graph expected(70);
  std::vector<std::pair<NodeId, NodeId>> removed;
  std::size_t i = 0;
  for (NodeId a = 0; a < 70; ++a) {
    for (NodeId b : g.neighbors(a)) {
      if (a > b) continue;
      if (i++ % 3 == 0) {
        removed.emplace_back(a, b);
      } else {
        expected.add_edge(a, b);
      }
    }
  }
  for (const auto& [a, b] : removed) {
    const std::size_t da = g.degree(a), db = g.degree(b);
    const std::size_t m = g.edge_count();
    if (a % 2 == 0) {
      g.remove_edge(a, b);
    } else {
      g.remove_edge(b, a);
    }
    EXPECT_FALSE(g.has_edge(a, b));
    EXPECT_FALSE(g.has_edge(b, a));
    EXPECT_EQ((g.row_words(a)[b >> 6] >> (b & 63)) & 1u, 0u);
    EXPECT_EQ((g.row_words(b)[a >> 6] >> (a & 63)) & 1u, 0u);
    EXPECT_EQ(g.degree(a), da - 1);
    EXPECT_EQ(g.degree(b), db - 1);
    EXPECT_EQ(g.edge_count(), m - 1);
    for (const NodeId x : {a, b}) {
      const auto nbrs = g.neighbors(x);
      EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    }
  }
  EXPECT_EQ(g, expected);
  EXPECT_EQ(g.edge_count(), expected.edge_count());
  EXPECT_EQ(fingerprint(g), fingerprint(expected));
  for (NodeId u = 0; u < 70; ++u) {
    const auto got = g.row_words(u);
    const auto want = expected.row_words(u);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "row " << u;
  }
}

TEST(Graph, RemoveEdgeRejectsNonEdgeSelfPairOutOfRange) {
  Graph g(4);
  g.add_edge(0, 1);
  EXPECT_THROW(g.remove_edge(0, 2), std::invalid_argument);  // non-edge
  EXPECT_THROW(g.remove_edge(1, 1), std::invalid_argument);  // self-pair
  EXPECT_THROW(g.remove_edge(0, 4), std::invalid_argument);  // out of range
  EXPECT_THROW(g.remove_edge(4, 0), std::invalid_argument);
  EXPECT_EQ(g.edge_count(), 1u);  // rejected calls change nothing
  g.remove_edge(1, 0);
  EXPECT_THROW(g.remove_edge(0, 1), std::invalid_argument);  // already gone
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g, Graph(4));
}

TEST(Graph, MinMaxDegree) {
  const Graph g = star(8);
  EXPECT_EQ(g.max_degree(), 7u);
  EXPECT_EQ(g.min_degree(), 1u);
}

// --- The two stores: CSR slices and bit rows ---------------------------------

/// Checks every CSR slice against the bit rows and the arc-id contract.
void expect_stores_agree(const Graph& g) {
  const std::size_t n = g.node_count();
  std::size_t arcs = 0;
  for (NodeId u = 0; u < n; ++u) {
    const auto nbrs = g.neighbors(u);
    ASSERT_EQ(nbrs.size(), g.degree(u));
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end())) << "node " << u;
    EXPECT_EQ(g.arc_begin(u), arcs);
    for (std::size_t p = 0; p < nbrs.size(); ++p) {
      EXPECT_EQ(g.neighbor_at(u, static_cast<std::uint32_t>(p)), nbrs[p]);
      EXPECT_EQ(g.arc_index(u, nbrs[p]), g.arc_begin(u) + p);
    }
    arcs += nbrs.size();
    const auto row = g.row_words(u);
    for (NodeId v = 0; v < n; ++v) {
      const bool listed = std::binary_search(nbrs.begin(), nbrs.end(), v);
      ASSERT_EQ(((row[v >> 6] >> (v & 63)) & 1u) != 0, listed)
          << u << "-" << v;
      ASSERT_EQ(g.has_edge(u, v), listed);
      if (!listed) ASSERT_EQ(g.arc_index(u, v), kNoArc) << u << "-" << v;
    }
  }
  EXPECT_EQ(g.arc_count(), arcs);
  EXPECT_EQ(g.edge_count() * 2, arcs);
}

/// Checks that two graphs' bit rows agree word for word.
void expect_same_rows(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  for (NodeId u = 0; u < a.node_count(); ++u) {
    const auto x = a.row_words(u);
    const auto y = b.row_words(u);
    EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end()))
        << "row " << u;
  }
}

TEST(Graph, BulkAddEdgeAndToggledGraphsCompareEqual) {
  // n = 65 and 130 put rows across two and three matrix words. Each trial
  // toggles random pairs in place (add_edge when absent, remove_edge when
  // present, in a random orientation) while tracking the edge set, then
  // builds the same set in bulk (shuffled, mixed orientation) and edge by
  // edge.
  std::mt19937_64 rng(2024);
  for (const std::size_t n : {2u, 3u, 17u, 64u, 65u, 130u}) {
    for (int trial = 0; trial < 3; ++trial) {
      Graph toggled(n);
      std::set<Edge> present;
      std::uniform_int_distribution<NodeId> node(
          0, static_cast<NodeId>(n - 1));
      for (std::size_t step = 0; step < 6 * n; ++step) {
        const NodeId u = node(rng);
        const NodeId v = node(rng);
        if (u == v) continue;
        const Edge key{std::min(u, v), std::max(u, v)};
        if (present.erase(key) != 0) {
          toggled.remove_edge(u, v);
        } else {
          toggled.add_edge(u, v);
          present.insert(key);
        }
        if (step % 16 == 0) expect_stores_agree(toggled);
      }
      std::vector<Edge> edges(present.begin(), present.end());
      std::shuffle(edges.begin(), edges.end(), rng);
      for (Edge& e : edges) {
        if (rng() & 1) std::swap(e.first, e.second);
      }
      const Graph bulk(n, edges);
      Graph incremental(n);
      for (const auto& [u, v] : edges) incremental.add_edge(u, v);

      expect_stores_agree(bulk);
      expect_stores_agree(incremental);
      expect_stores_agree(toggled);
      EXPECT_EQ(bulk.edge_count(), present.size());
      EXPECT_EQ(bulk, incremental);
      EXPECT_EQ(bulk, toggled);
      expect_same_rows(bulk, incremental);
      expect_same_rows(bulk, toggled);
      EXPECT_EQ(fingerprint(bulk), fingerprint(toggled));
    }
  }
}

/// The edge set of g, as sorted (u < v) pairs.
std::set<Edge> edge_set(const Graph& g) {
  std::set<Edge> edges;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (const NodeId v : g.neighbors(u)) {
      if (u < v) edges.emplace(u, v);
    }
  }
  return edges;
}

TEST(Graph, CopiesShareUntilOneIsMutated) {
  Rng rng(11);
  Graph original = random_gnp(90, 0.25, rng);
  const std::set<Edge> before = edge_set(original);
  ASSERT_FALSE(before.empty());
  const auto [a, b] = *before.begin();
  NodeId x = 0;
  NodeId y = 1;
  while (original.has_edge(x, y)) ++y;

  Graph copy = original;
  EXPECT_EQ(copy, original);
  copy.remove_edge(a, b);  // copies the shared block first
  const Graph snapshot = copy;
  copy.add_edge(x, y);     // shared with the snapshot: copies again
  original.add_edge(x, y);

  std::set<Edge> want_copy = before;
  want_copy.erase({a, b});
  std::set<Edge> want_snapshot = want_copy;
  want_copy.emplace(x, y);
  std::set<Edge> want_original = before;
  want_original.emplace(x, y);
  EXPECT_EQ(edge_set(copy), want_copy);
  EXPECT_EQ(edge_set(snapshot), want_snapshot);
  EXPECT_EQ(edge_set(original), want_original);
  expect_stores_agree(copy);
  expect_stores_agree(snapshot);
  expect_stores_agree(original);
  EXPECT_FALSE(snapshot.has_edge(a, b));
  EXPECT_FALSE(snapshot.has_edge(x, y));
  EXPECT_TRUE(original.has_edge(a, b));
}

TEST(Graph, CopiesMutatedOnSeparateThreadsKeepTheirOwnEdges) {
  Rng rng(12);
  const Graph original = random_gnp(70, 0.3, rng);
  const std::set<Edge> before = edge_set(original);
  // Thread t removes every edge {u, v} with u % 4 == t and adds {t, v}
  // for every non-neighbour v > t, each on its own copy.
  constexpr NodeId kThreads = 4;
  std::vector<Graph> copies(kThreads, Graph(0));
  std::vector<std::set<Edge>> want(kThreads, before);
  for (NodeId t = 0; t < kThreads; ++t) {
    for (const Edge& e : before) {
      if (e.first % kThreads == t) want[t].erase(e);
    }
    for (NodeId v = t + 1; v < original.node_count(); ++v) {
      if (!original.has_edge(t, v)) want[t].emplace(t, v);
    }
  }
  std::vector<std::thread> threads;
  for (NodeId t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Graph mine = original;
      for (const Edge& e : before) {
        if (e.first % kThreads == t) mine.remove_edge(e.first, e.second);
      }
      for (NodeId v = t + 1; v < mine.node_count(); ++v) {
        if (!original.has_edge(t, v)) mine.add_edge(t, v);
      }
      copies[t] = mine;
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(edge_set(original), before);
  for (NodeId t = 0; t < kThreads; ++t) {
    EXPECT_EQ(edge_set(copies[t]), want[t]) << "copy " << t;
    expect_stores_agree(copies[t]);
  }
}

TEST(Graph, BulkConstructorRejectsLoopsDuplicatesOutOfRange) {
  const auto build = [](std::vector<Edge> edges) { Graph g(4, edges); };
  EXPECT_NO_THROW(build({{0, 1}, {3, 2}, {1, 3}}));
  EXPECT_THROW(build({{0, 1}, {2, 2}}), std::invalid_argument);  // loop
  EXPECT_THROW(build({{0, 1}, {0, 1}}), std::invalid_argument);  // same way
  EXPECT_THROW(build({{0, 1}, {1, 0}}), std::invalid_argument);  // reversed
  EXPECT_THROW(build({{0, 4}}), std::invalid_argument);  // out of range
  EXPECT_THROW(build({{4, 0}}), std::invalid_argument);
  EXPECT_THROW(Graph(0, std::vector<Edge>{{0, 0}}), std::invalid_argument);
  EXPECT_EQ(Graph(4, std::vector<Edge>{}), Graph(4));
}

// --- Definition 2: E(G) ------------------------------------------------------

TEST(Encoding, EdgeIndexIsLexicographic) {
  // n = 4: (0,1)=0 (0,2)=1 (0,3)=2 (1,2)=3 (1,3)=4 (2,3)=5.
  EXPECT_EQ(edge_index(4, 0, 1), 0u);
  EXPECT_EQ(edge_index(4, 0, 3), 2u);
  EXPECT_EQ(edge_index(4, 1, 2), 3u);
  EXPECT_EQ(edge_index(4, 2, 3), 5u);
  EXPECT_EQ(edge_index(4, 3, 2), 5u);  // symmetric
}

class EdgeIndexInverse : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EdgeIndexInverse, RoundTripsAllPositions) {
  const std::size_t n = GetParam();
  for (std::size_t i = 0; i < n * (n - 1) / 2; ++i) {
    const EdgePair e = edge_from_index(n, i);
    EXPECT_LT(e.u, e.v);
    EXPECT_EQ(edge_index(n, e.u, e.v), i);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EdgeIndexInverse,
                         ::testing::Values(2, 3, 5, 10, 33, 64));

TEST(Encoding, LengthIsNChoose2) {
  Rng rng(1);
  const Graph g = random_uniform(20, rng);
  EXPECT_EQ(encode(g).size(), 20u * 19 / 2);
}

class EncodingRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EncodingRoundTrip, DecodeInvertsEncode) {
  Rng rng(GetParam());
  const Graph g = random_uniform(48, rng);
  EXPECT_EQ(decode(encode(g), 48), g);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodingRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Encoding, DecodeRejectsWrongLength) {
  bitio::BitVector bits(10);
  EXPECT_THROW(decode(bits, 6), std::invalid_argument);
}

/// The word-level decode against the pair-by-pair definition. Every n in
/// 0..130 starts and ends rows at every offset within a word, and ends
/// E(G) both inside a word and on a word boundary (n = 128: 8128 bits).
TEST(Encoding, WordLevelDecodeMatchesPairByPair) {
  std::mt19937_64 rng(19);
  std::uniform_real_distribution<double> random_density(0.0, 1.0);
  for (std::size_t n = 0; n <= 130; ++n) {
    const std::size_t pairs = n * (n - 1) / 2;
    std::vector<double> densities = {0.0, 1.0 / 16, 0.5, 1.0};
    for (int r = 0; r < 3; ++r) densities.push_back(random_density(rng));
    for (const double p : densities) {
      std::bernoulli_distribution bit(p);
      bitio::BitVector bits(pairs);
      for (std::size_t i = 0; i < pairs; ++i) bits.set(i, bit(rng));
      std::vector<Edge> edges;
      std::size_t i = 0;
      for (NodeId u = 0; u + 1 < n; ++u) {
        for (NodeId v = u + 1; v < n; ++v, ++i) {
          if (bits.get(i)) edges.emplace_back(u, v);
        }
      }
      EXPECT_EQ(decode(bits, n), Graph(n, edges)) << "n " << n << " p " << p;
    }
    EXPECT_THROW((void)decode(bitio::BitVector(pairs + 1), n),
                 std::invalid_argument);
    if (pairs > 0) {
      EXPECT_THROW((void)decode(bitio::BitVector(pairs - 1), n),
                   std::invalid_argument);
    }
  }
}

TEST(Encoding, EveryBitStringIsAGraph) {
  // Definition 2: the correspondence is onto.
  bitio::BitVector bits(6);  // n = 4
  bits.set(0, true);         // edge (0,1)
  bits.set(5, true);         // edge (2,3)
  const Graph g = decode(bits, 4);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_EQ(g.edge_count(), 2u);
}

// --- Generators --------------------------------------------------------------

TEST(Generators, ChainStructure) {
  const Graph g = chain(5);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(3, 4));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Generators, RingHasUniformDegree2) {
  const Graph g = ring(7);
  EXPECT_EQ(g.edge_count(), 7u);
  for (NodeId u = 0; u < 7; ++u) EXPECT_EQ(g.degree(u), 2u);
  EXPECT_THROW(ring(2), std::invalid_argument);
}

TEST(Generators, CompleteGraph) {
  const Graph g = complete(6);
  EXPECT_EQ(g.edge_count(), 15u);
  EXPECT_EQ(g.min_degree(), 5u);
}

TEST(Generators, GridDegrees) {
  const Graph g = grid(3, 4);
  EXPECT_EQ(g.node_count(), 12u);
  EXPECT_EQ(g.edge_count(), 3u * 3 + 4u * 2);  // 17
  EXPECT_EQ(g.degree(0), 2u);                  // corner
}

TEST(Generators, GnpEdgeCountConcentrates) {
  Rng rng(11);
  const Graph g = random_gnp(200, 0.5, rng);
  const double expected = 200.0 * 199 / 2 * 0.5;
  EXPECT_NEAR(static_cast<double>(g.edge_count()), expected, 5 * std::sqrt(expected));
}

TEST(Generators, GnpExtremes) {
  Rng rng(1);
  EXPECT_EQ(random_gnp(10, 0.0, rng).edge_count(), 0u);
  EXPECT_EQ(random_gnp(10, 1.0, rng).edge_count(), 45u);
  EXPECT_THROW(random_gnp(10, 1.5, rng), std::invalid_argument);
}

TEST(Generators, UniformIsSeedDeterministic) {
  Rng a(5), b(5), c(6);
  EXPECT_EQ(random_uniform(30, a), random_uniform(30, b));
  Rng a2(5);
  EXPECT_FALSE(random_uniform(30, a2) == random_uniform(30, c));
}

// --- The Theorem 9 graph G_B -------------------------------------------------

TEST(GB, StructureMatchesFigure1) {
  const std::size_t k = 6;
  const Graph g = lower_bound_gb(k);
  EXPECT_EQ(g.node_count(), 3 * k);
  // Middle nodes: degree k (bottom row) + 1 (top partner).
  for (NodeId mid = k; mid < 2 * k; ++mid) EXPECT_EQ(g.degree(mid), k + 1);
  // Bottom nodes connect to all middles, top nodes to their partner only.
  for (NodeId b = 0; b < k; ++b) EXPECT_EQ(g.degree(b), k);
  for (NodeId t = 2 * k; t < 3 * k; ++t) EXPECT_EQ(g.degree(t), 1u);
}

TEST(GB, ShortestPathBottomToTopIsTwoViaPartner) {
  const std::size_t k = 5;
  const Graph g = lower_bound_gb(k);
  const DistanceMatrix dist(g);
  for (NodeId b = 0; b < k; ++b) {
    for (NodeId t = 2 * k; t < 3 * k; ++t) {
      EXPECT_EQ(dist.at(b, t), 2u);
      // The unique intermediary is the partner t − k.
      const auto succ = shortest_path_successors(g, dist, b, t);
      ASSERT_EQ(succ.size(), 1u);
      EXPECT_EQ(succ[0], t - k);
    }
  }
}

TEST(GB, AlternativePathsHaveLengthAtLeast4) {
  // Remove the partner edge mentally: the next-best route b → mid' → b' →
  // partner → t has 4 edges. Verify via a modified graph.
  const std::size_t k = 4;
  Graph g(3 * k);
  for (NodeId mid = k; mid < 2 * k; ++mid) {
    for (NodeId b = 0; b < k; ++b) g.add_edge(b, mid);
  }
  // Only connect top t to its partner; check distance from bottom avoiding
  // the direct partner hop by removing it: build without one partner edge.
  for (NodeId mid = k; mid + 1 < 2 * k; ++mid) {
    g.add_edge(mid, mid + k);
  }
  // Top node 3k−1 has no partner edge at all → unreachable.
  const DistanceMatrix dist(g);
  EXPECT_EQ(dist.at(0, 3 * k - 1), kUnreachable);
}

TEST(GB, PermutedVariantPlantsThePermutation) {
  const std::size_t k = 5;
  const std::vector<NodeId> perm = {3, 1, 4, 0, 2};
  const Graph g = lower_bound_gb_permuted(k, perm);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_TRUE(g.has_edge(static_cast<NodeId>(k + i),
                           static_cast<NodeId>(2 * k + perm[i])));
  }
  EXPECT_THROW(lower_bound_gb_permuted(k, {0, 1, 2, 3, 3}),
               std::invalid_argument);
  EXPECT_THROW(lower_bound_gb_permuted(k, {0, 1}), std::invalid_argument);
}

TEST(GB, IdentityPermEqualsPlainGB) {
  const std::size_t k = 4;
  EXPECT_EQ(lower_bound_gb(k), lower_bound_gb_permuted(k, {0, 1, 2, 3}));
}

}  // namespace
}  // namespace optrt::graph
