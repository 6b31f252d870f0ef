// k-level hierarchical routing tests: delivery on every family, table
// shrinkage as the hierarchy deepens, pivot/label semantics, and the
// waypoint-leg invariants.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/experiment.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "model/verifier.hpp"
#include "schemes/errors.hpp"
#include "schemes/hierarchical.hpp"
#include "schemes/landmark.hpp"
#include "schemes/serialization.hpp"

namespace optrt::schemes {
namespace {

using graph::Graph;
using graph::Rng;

struct Case {
  int family;
  std::size_t levels;
};

class HierarchicalMatrix : public ::testing::TestWithParam<Case> {
 public:
  static Graph make(int which) {
    Rng rng(1101);
    switch (which) {
      case 0: return graph::chain(48);
      case 1: return graph::grid(6, 8);
      case 2: return graph::hypercube(5);
      case 3: return graph::random_gnp(64, 0.2, rng);
      default: return core::certified_random_graph(64, rng);
    }
  }
};

TEST_P(HierarchicalMatrix, DeliversEverywhere) {
  const auto [family, levels] = GetParam();
  Graph g = make(family);
  if (!graph::is_connected(g)) {
    Rng rng(1102);
    g = graph::random_gnp(64, 0.35, rng);
  }
  HierarchicalOptions opt;
  opt.levels = levels;
  const HierarchicalScheme scheme(g, opt);
  const auto result = model::verify_scheme(g, scheme);
  EXPECT_TRUE(result.ok()) << "family " << family << " levels " << levels;
  EXPECT_GE(result.max_stretch, 1.0);
  // The hierarchy is lossy but bounded in practice; guard against
  // pathological blowup (legs are shortest paths between pivots).
  EXPECT_LE(result.max_stretch, 16.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, HierarchicalMatrix,
    ::testing::Values(Case{0, 2}, Case{0, 3}, Case{1, 2}, Case{1, 3},
                      Case{2, 3}, Case{3, 2}, Case{3, 3}, Case{4, 2},
                      Case{4, 3}, Case{4, 4}),
    [](const auto& info) {
      return "f" + std::to_string(info.param.family) + "_k" +
             std::to_string(info.param.levels);
    });

TEST(Hierarchical, PivotSetsAreNestedAndSized) {
  Rng rng(1103);
  const Graph g = core::certified_random_graph(81, rng);
  HierarchicalOptions opt;
  opt.levels = 4;
  const HierarchicalScheme scheme(g, opt);
  for (std::size_t i = 2; i < 4; ++i) {
    const auto& lower = scheme.pivots(i - 1);
    const auto& upper = scheme.pivots(i);
    EXPECT_LT(upper.size(), lower.size());
    // Nested: every upper pivot is a lower pivot.
    for (graph::NodeId t : upper) {
      EXPECT_TRUE(std::binary_search(lower.begin(), lower.end(), t));
    }
  }
}

TEST(Hierarchical, PivotOfIsNearest) {
  Rng rng(1104);
  const Graph g = core::certified_random_graph(64, rng);
  const HierarchicalScheme scheme(g, {});
  const graph::DistanceMatrix dist(g);
  for (std::size_t level = 1; level < scheme.levels(); ++level) {
    for (graph::NodeId v = 0; v < 64; ++v) {
      const graph::NodeId p = scheme.pivot_of(level, v);
      for (graph::NodeId t : scheme.pivots(level)) {
        EXPECT_LE(dist.at(v, p), dist.at(v, t));
      }
    }
  }
}

TEST(Hierarchical, DeeperHierarchiesUseSmallerTables) {
  // The Peleg–Upfal trade-off: function bits shrink as k grows (labels
  // grow linearly in k, stretch degrades).
  const Graph g = graph::grid(12, 12);  // sparse: the regime hierarchies own
  std::size_t prev = static_cast<std::size_t>(-1);
  for (std::size_t k : {2u, 3u, 4u}) {
    HierarchicalOptions opt;
    opt.levels = k;
    const HierarchicalScheme scheme(g, opt);
    const auto bits = scheme.space().total_function_bits();
    EXPECT_LT(bits, prev) << "k=" << k;
    prev = bits;
    EXPECT_TRUE(model::verify_scheme(g, scheme).ok()) << "k=" << k;
  }
}

TEST(Hierarchical, LabelBitsGrowWithDepth) {
  Rng rng(1105);
  const Graph g = core::certified_random_graph(64, rng);
  HierarchicalOptions two, four;
  two.levels = 2;
  four.levels = 4;
  const auto l2 = HierarchicalScheme(g, two).space().label_bits;
  const auto l4 = HierarchicalScheme(g, four).space().label_bits;
  EXPECT_EQ(l2, 64u * 2 * 6);
  EXPECT_EQ(l4, 64u * 4 * 6);
}

TEST(Hierarchical, TwoLevelsBehavesLikeLandmark) {
  // k = 2 is the Cowen/landmark structure: stretch < 3.
  Rng rng(1106);
  const Graph g = core::certified_random_graph(96, rng);
  HierarchicalOptions opt;
  opt.levels = 2;
  const HierarchicalScheme scheme(g, opt);
  const auto result = model::verify_scheme(g, scheme);
  EXPECT_TRUE(result.ok());
  EXPECT_LE(result.max_stretch, 3.0);
}

TEST(Hierarchical, RejectsBadInputs) {
  Graph disconnected(4);
  disconnected.add_edge(0, 1);
  EXPECT_THROW(HierarchicalScheme{disconnected}, SchemeInapplicable);
  HierarchicalOptions opt;
  opt.levels = 1;
  EXPECT_THROW(HierarchicalScheme(graph::chain(8), opt), SchemeInapplicable);
}

TEST(Hierarchical, BuildAndDecodeLeaveNoMatrixInTheSharedCache) {
  // The build takes its distances from the cluster layer (one BFS per top
  // and per child pivot, ClusterBfs for vicinities) and the decoder finds
  // each level's nearest pivots by multi-source BFS: neither computes nor
  // pins n² state.
  auto& cache = graph::DistanceCache::global();
  cache.clear();
  const Graph g = graph::TopologyFamily::power_law(2).make(72, 13);
  HierarchicalOptions opt;
  opt.levels = 3;
  const HierarchicalScheme built(g, opt);
  const HierarchicalScheme loaded =
      deserialize_hierarchical(serialize(built), g);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
  for (std::size_t level = 0; level < built.levels(); ++level) {
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(loaded.pivot_of(level, v), built.pivot_of(level, v));
    }
  }
}

TEST(Hierarchical, SpaceMatchesSerializedBits) {
  Rng rng(1107);
  const Graph g = core::certified_random_graph(48, rng);
  const HierarchicalScheme scheme(g, {});
  const auto space = scheme.space();
  for (graph::NodeId u = 0; u < 48; ++u) {
    EXPECT_EQ(space.function_bits[u], scheme.function_bits(u).size());
  }
}

}  // namespace
}  // namespace optrt::schemes
