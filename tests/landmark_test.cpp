// Landmark (stretch-3, §1.2 related-work baseline) scheme tests: delivery
// and the stretch-<3 guarantee on arbitrary connected graphs, vicinity
// semantics, the size regimes against Theorem 1, and the shared cluster
// layer — the nearest-landmark BFS, ClusterBfs, and the ports of
// graph::least_ports with the rows of graph::bfs_rows, on target lists
// that straddle their 64-target passes — against a distance-matrix
// oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "core/experiment.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "model/verifier.hpp"
#include "schemes/compact_diam2.hpp"
#include "schemes/errors.hpp"
#include "schemes/landmark.hpp"
#include "schemes/landmark_table.hpp"
#include "schemes/serialization.hpp"

namespace optrt::schemes {
namespace {

using graph::Graph;
using graph::Rng;

class LandmarkFamilies : public ::testing::TestWithParam<int> {
 public:
  static Graph make(int which) {
    Rng rng(7);
    switch (which) {
      case 0:
        return graph::chain(40);
      case 1:
        return graph::ring(41);
      case 2:
        return graph::grid(6, 7);
      case 3:
        return graph::star(40);
      case 4:
        return graph::random_gnp(48, 0.15, rng);
      default:
        return core::certified_random_graph(64, rng);
    }
  }
};

TEST_P(LandmarkFamilies, DeliversWithStretchBelow3) {
  Graph g = make(GetParam());
  if (!graph::is_connected(g)) {
    // Sparse G(n,p) draws may disconnect; densify deterministically.
    Rng rng(8);
    g = graph::random_gnp(48, 0.3, rng);
  }
  const LandmarkScheme scheme(g);
  const auto result = model::verify_scheme(g, scheme);
  EXPECT_TRUE(result.ok());
  EXPECT_LE(result.max_stretch, 3.0);
}

INSTANTIATE_TEST_SUITE_P(Families, LandmarkFamilies,
                         ::testing::Values(0, 1, 2, 3, 4, 5));

TEST(Landmark, WorksWhereTheorem1DoesNot) {
  // The paper's constructions need diameter 2; landmark routing covers the
  // sparse regime.
  const Graph g = graph::chain(64);
  EXPECT_THROW(CompactDiam2Scheme(g, {}), SchemeInapplicable);
  const LandmarkScheme scheme(g);
  EXPECT_TRUE(model::verify_scheme(g, scheme).ok());
}

TEST(Landmark, NearestLandmarkIsNearest) {
  Rng rng(9);
  const Graph g = core::certified_random_graph(96, rng);
  const LandmarkScheme scheme(g);
  const graph::DistanceMatrix dist(g);
  for (graph::NodeId v = 0; v < 96; ++v) {
    const graph::NodeId l = scheme.landmark_of(v);
    for (graph::NodeId other : scheme.landmarks()) {
      EXPECT_LE(dist.at(v, l), dist.at(v, other));
    }
  }
}

TEST(Landmark, LandmarksAreInEveryVicinityOfTheirChildren) {
  // v's nearest landmark always has v in its vicinity (the handoff anchor).
  Rng rng(10);
  const Graph g = core::certified_random_graph(64, rng);
  const LandmarkScheme scheme(g);
  const graph::DistanceMatrix dist(g);
  for (graph::NodeId v = 0; v < 64; ++v) {
    const graph::NodeId l = scheme.landmark_of(v);
    if (l == v) continue;
    // d(l, v) ≤ d(v, l(v)) trivially, so v ∈ C(l).
    EXPECT_LE(dist.at(l, v), dist.at(v, scheme.landmark_of(v)));
  }
}

TEST(Landmark, CustomLandmarkCount) {
  Rng rng(11);
  const Graph g = core::certified_random_graph(64, rng);
  LandmarkScheme::Options opt;
  opt.landmark_count = 4;
  const LandmarkScheme scheme(g, opt);
  EXPECT_EQ(scheme.landmarks().size(), 4u);
  EXPECT_TRUE(model::verify_scheme(g, scheme).ok());
}

TEST(Landmark, LabelBitsChargedUnderGamma) {
  Rng rng(12);
  const Graph g = core::certified_random_graph(64, rng);
  const LandmarkScheme scheme(g);
  const auto space = scheme.space();
  EXPECT_EQ(space.label_bits, 64u * 2 * 6);  // (v, l(v)) at ⌈log n⌉ each
  EXPECT_GT(space.total_function_bits(), 0u);
}

TEST(Landmark, DenseGraphsFavorTheorem1SparseFavorLandmarks) {
  // The §1.2 crossover in miniature.
  Rng rng(13);
  const Graph dense = core::certified_random_graph(96, rng);
  const LandmarkScheme lm_dense(dense);
  const CompactDiam2Scheme compact(dense, {});
  EXPECT_GT(lm_dense.space().total_bits(), compact.space().total_bits());

  // Sparse: a grid. Theorem 1 cannot run; landmark tables stay near-linear.
  const Graph sparse = graph::grid(10, 10);
  const LandmarkScheme lm_sparse(sparse);
  const double n = 100;
  EXPECT_LT(static_cast<double>(lm_sparse.space().total_bits()),
            n * n * std::log2(n) / 2);  // well below full-table territory
}

TEST(Landmark, VicinityRuleMatchesDefinition) {
  Rng rng(14);
  const Graph g = graph::grid(5, 5);
  const LandmarkScheme scheme(g);
  const graph::DistanceMatrix dist(g);
  for (graph::NodeId w = 0; w < 25; ++w) {
    std::size_t expected = 0;
    for (graph::NodeId v = 0; v < 25; ++v) {
      if (v != w && dist.at(w, v) <= dist.at(v, scheme.landmark_of(v))) {
        ++expected;
      }
    }
    EXPECT_EQ(scheme.vicinity_size(w), expected);
  }
}

TEST(LandmarkTable, NearestLandmarksMatchADistanceMatrixOracle) {
  // Stored order is arbitrary (the landmark decoder keeps it), ids may
  // repeat, and sparse G(n, p) often leaves nodes no landmark reaches.
  Rng rng(2024);
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = 2 + rng() % 40;
    const double p = std::min(
        1.0, static_cast<double>(1 + rng() % 6) / static_cast<double>(n));
    const Graph g = graph::random_gnp(n, p, rng);
    std::vector<graph::NodeId> landmarks(1 + rng() % 6);
    for (auto& l : landmarks) l = static_cast<graph::NodeId>(rng() % n);
    const NearestLandmarks nearest = nearest_landmarks(g, landmarks);
    const graph::DistanceMatrix dist(g);
    for (graph::NodeId v = 0; v < n; ++v) {
      std::uint32_t best = graph::kUnreachable;
      std::uint32_t index = 0;
      for (std::uint32_t i = 0; i < landmarks.size(); ++i) {
        if (dist.at(v, landmarks[i]) < best) {
          best = dist.at(v, landmarks[i]);
          index = i;
        }
      }
      ASSERT_EQ(nearest.distance[v], best) << round << " " << v;
      ASSERT_EQ(nearest.index[v], index) << round << " " << v;
      // At the landmark, the rank of the least shortest-path successor.
      graph::PortId exit = 0;
      const graph::NodeId l = landmarks[index];
      if (best != graph::kUnreachable && l != v) {
        const graph::NodeId succ =
            graph::shortest_path_successors(g, dist, l, v).front();
        const auto nbrs = g.neighbors(l);
        exit = static_cast<graph::PortId>(
            std::find(nbrs.begin(), nbrs.end(), succ) - nbrs.begin());
      }
      ASSERT_EQ(nearest.exit_port[v], exit) << round << " " << v;
    }
  }
}

TEST(LandmarkTable, ClusterBfsAndLeastPortsMatchADistanceMatrixOracle) {
  // Radii r = d(·, S) + c, with seeded random S and c ∈ {0, 1, 2}, meet the
  // closure precondition r(v) ≤ r(u) + d(u, v). Nodes S never reaches get
  // r = ∞ and admit their whole component.
  Rng rng(2025);
  Graph two(12);  // two components: a 7-ring and a 5-path
  for (graph::NodeId v = 0; v < 7; ++v) two.add_edge(v, (v + 1) % 7);
  for (graph::NodeId v = 7; v + 1 < 12; ++v) two.add_edge(v, v + 1);
  const std::vector<Graph> graphs = {
      graph::ring(23),
      graph::grid(5, 6),
      graph::star(17),
      graph::TopologyFamily::power_law(2).make(96, 3),
      core::certified_random_graph(48, rng),
      two};
  for (std::size_t which = 0; which < graphs.size(); ++which) {
    const Graph& g = graphs[which];
    const std::size_t n = g.node_count();
    const graph::DistanceMatrix dist(g);
    // The rank of the least shortest-path successor of w toward v.
    const auto oracle_port = [&](graph::NodeId w, graph::NodeId v) {
      const graph::NodeId succ =
          graph::shortest_path_successors(g, dist, w, v).front();
      const auto nbrs = g.neighbors(w);
      return static_cast<graph::PortId>(
          std::find(nbrs.begin(), nbrs.end(), succ) - nbrs.begin());
    };
    // The first target runs alone, then passes of up to 64: 65 targets
    // fill one 64-bit pass, 130 end on a one-target pass. Lists are
    // unsorted, and the shorter graphs' lists repeat targets. Ports are
    // checked at every (node, target) pair: unwritten where d is 0 or ∞.
    constexpr std::uint32_t kUnwritten = 0xdeadbeef;
    for (const std::size_t k : {std::size_t{1}, std::size_t{63},
                                std::size_t{64}, std::size_t{65},
                                std::size_t{130}, n}) {
      std::vector<graph::NodeId> targets(k);
      if (k == n) {
        std::iota(targets.begin(), targets.end(), graph::NodeId{0});
        std::shuffle(targets.begin(), targets.end(), rng);
      } else {
        for (auto& t : targets) t = static_cast<graph::NodeId>(rng() % n);
      }
      std::vector<std::uint32_t> rows(k * n);
      const std::size_t swept = graph::bfs_rows(g, targets, rows);
      std::vector<std::uint32_t> ports(k * n, kUnwritten);
      graph::least_ports(g, targets, ports);
      for (std::size_t i = 0; i < k; ++i) {
        const graph::NodeId t = targets[i];
        for (graph::NodeId w = 0; w < n; ++w) {
          const std::uint32_t d = dist.at(w, t);
          ASSERT_EQ(rows[i * n + w], d) << which << " " << w << " " << t;
          const std::uint32_t want = d == 0 || d == graph::kUnreachable
                                         ? kUnwritten
                                         : oracle_port(w, t);
          ASSERT_EQ(ports[w * k + i], want)
              << which << " k=" << k << " " << w << " " << t;
        }
      }
      // Every connected graph here has 2·ecc < 64, so a full pass sweeps.
      if (k == 65 && dist.connected()) {
        EXPECT_EQ(swept, 64u) << which;
      }
    }
    for (std::uint32_t c = 0; c < 3; ++c) {
      for (int trial = 0; trial < 3; ++trial) {
        std::vector<graph::NodeId> sources(1 + rng() % 4);
        for (auto& s : sources) s = static_cast<graph::NodeId>(rng() % n);
        std::vector<std::uint32_t> r = nearest_landmarks(g, sources).distance;
        for (auto& x : r) x = x == graph::kUnreachable ? x : x + c;
        // One search object for every w: its visit stamps carry over.
        ClusterBfs cluster_bfs(g, r);
        for (graph::NodeId w = 0; w < n; ++w) {
          std::vector<TableEntry> got = cluster_bfs(w);
          std::ranges::sort(got, {}, &TableEntry::id);
          std::vector<TableEntry> want;
          for (graph::NodeId v = 0; v < n; ++v) {
            if (v != w && dist.at(w, v) < r[v]) {
              want.push_back({v, oracle_port(w, v)});
            }
          }
          ASSERT_EQ(got, want) << which << " c=" << c << " w=" << w;
        }
      }
    }
  }
}

TEST(Landmark, BuildAndDecodeLeaveNoMatrixInTheSharedCache) {
  // The build takes its distances from the cluster layer and the decoder
  // from one landmark BFS: neither computes nor pins n² state.
  auto& cache = graph::DistanceCache::global();
  cache.clear();
  const Graph g = graph::TopologyFamily::power_law(2).make(72, 13);
  const LandmarkScheme built(g);
  const LandmarkScheme loaded = deserialize_landmark(serialize(built), g);
  EXPECT_EQ(loaded.landmarks(), built.landmarks());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
}

TEST(Landmark, ThrowsOnDisconnected) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_THROW(LandmarkScheme{g}, SchemeInapplicable);
}

}  // namespace
}  // namespace optrt::schemes
