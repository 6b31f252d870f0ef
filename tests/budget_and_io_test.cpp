// Tests for compile_within_budget (the stretch/space ladder as an API) and
// the graph file format.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/experiment.hpp"
#include "core/graph_io.hpp"
#include "graph/generators.hpp"
#include "model/verifier.hpp"
#include "schemes/compact_diam2.hpp"
#include "schemes/compiler.hpp"
#include "schemes/errors.hpp"
#include "schemes/hub.hpp"
#include "schemes/routing_center.hpp"

namespace optrt {
namespace {

using graph::Graph;
using graph::Rng;

Graph certified(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return core::certified_random_graph(n, rng);
}

TEST(Budget, UnlimitedBudgetGivesShortestPath) {
  const Graph g = certified(96, 801);
  const auto result =
      schemes::compile_within_budget(g, static_cast<std::size_t>(-1));
  EXPECT_EQ(result.scheme->name(), "compact-diam2");
  EXPECT_DOUBLE_EQ(result.stretch_bound, 1.0);
  EXPECT_DOUBLE_EQ(model::verify_scheme(g, *result.scheme).max_stretch, 1.0);
}

TEST(Budget, LadderDescendsWithTheBudget) {
  const Graph g = certified(96, 802);
  const auto t1 = schemes::CompactDiam2Scheme(g, {}).space().total_bits();
  const auto t3 = schemes::RoutingCenterScheme(g).space().total_bits();
  const auto t4 = schemes::HubScheme(g).space().total_bits();

  // Just below Theorem 1's cost → Theorem 3's scheme.
  auto r = schemes::compile_within_budget(g, t1 - 1);
  EXPECT_EQ(r.scheme->name(), "routing-center");
  EXPECT_DOUBLE_EQ(r.stretch_bound, 1.5);
  // Just below Theorem 3's cost → Theorem 4's.
  r = schemes::compile_within_budget(g, t3 - 1);
  EXPECT_EQ(r.scheme->name(), "hub");
  EXPECT_DOUBLE_EQ(r.stretch_bound, 2.0);
  // Just below Theorem 4's cost → Theorem 5's zero-bit scheme.
  r = schemes::compile_within_budget(g, t4 - 1);
  EXPECT_EQ(r.scheme->name(), "sequential-search");
  EXPECT_GT(r.stretch_bound, 2.0);
  // Zero budget also lands on Theorem 5.
  r = schemes::compile_within_budget(g, 0);
  EXPECT_EQ(r.scheme->name(), "sequential-search");
}

TEST(Budget, EveryRungRoutesCorrectly) {
  const Graph g = certified(64, 803);
  for (std::size_t budget :
       {std::size_t{0}, std::size_t{500}, std::size_t{3000},
        std::size_t{1} << 20}) {
    const auto r = schemes::compile_within_budget(g, budget);
    const auto v = model::verify_scheme(g, *r.scheme);
    EXPECT_TRUE(v.ok()) << "budget " << budget;
    EXPECT_LE(v.max_stretch, r.stretch_bound + 1e-9) << "budget " << budget;
    EXPECT_LE(r.scheme->space().total_bits(), budget) << "budget " << budget;
  }
}

TEST(Budget, ThrowsWhereLadderInapplicable) {
  EXPECT_THROW(schemes::compile_within_budget(graph::chain(16), 1 << 20),
               schemes::SchemeInapplicable);
}

TEST(GraphIo, RoundTripsEveryFamily) {
  Rng rng(804);
  const std::string path = "/tmp/optrt_graph_io_test.eg";
  for (const Graph& g :
       {graph::chain(20), graph::star(21), graph::hypercube(4),
        graph::random_uniform(33, rng), graph::lower_bound_gb(5)}) {
    core::save_graph(path, g);
    EXPECT_EQ(core::load_graph(path), g);
  }
  std::remove(path.c_str());
}

/// E(G) is empty below n = 2 and one bit at n = 2; those files hold fewer
/// edge bits than nodes and must still load.
TEST(GraphIo, RoundTripsTinyGraphs) {
  const std::string path = "/tmp/optrt_graph_io_tiny_test.eg";
  for (std::size_t n = 0; n <= 3; ++n) {
    for (const Graph& g : {Graph(n), graph::complete(n)}) {
      core::save_graph(path, g);
      EXPECT_EQ(core::load_graph(path), g) << "n " << n;
    }
  }
  std::remove(path.c_str());
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW((void)core::load_graph("/nonexistent/no.eg"),
               std::runtime_error);
}

}  // namespace
}  // namespace optrt
