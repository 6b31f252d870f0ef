// Tests for the whole-graph enumerative compressor: exact round trips on
// structured and random families, and savings only where the graph has
// structure.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "incompressibility/graph_compressor.hpp"

namespace optrt {
namespace {

using graph::Graph;
using graph::Rng;

class CompressorFamilies : public ::testing::TestWithParam<int> {
 public:
  static Graph make(int which) {
    Rng rng(1005);
    switch (which) {
      case 0: return graph::chain(40);
      case 1: return graph::star(40);
      case 2: return graph::grid(6, 7);
      case 3: return graph::complete(24);
      case 4: return graph::lower_bound_gb(10);
      case 5: return graph::hypercube(5);
      default: return graph::random_uniform(40, rng);
    }
  }
};

TEST_P(CompressorFamilies, RoundTripsExactly) {
  const Graph g = make(GetParam());
  const bitio::BitVector code = incompress::compress_graph(g);
  EXPECT_EQ(incompress::decompress_graph(code, g.node_count()), g);
  EXPECT_EQ(code.size(), incompress::compressed_graph_bits(g));
}

INSTANTIATE_TEST_SUITE_P(Families, CompressorFamilies,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6));

TEST(Compressor, StructuredGraphsCompressRandomDoNot) {
  const std::size_t n = 128;
  const std::size_t eg = n * (n - 1) / 2;
  // Sparse/structured: large savings.
  EXPECT_LT(incompress::compressed_graph_bits(graph::chain(n)), eg / 4);
  EXPECT_LT(incompress::compressed_graph_bits(graph::star(n)), eg / 4);
  EXPECT_LT(incompress::compressed_graph_bits(graph::complete(n)), eg / 4);
  // Random: within ~(½ log n + weight header) per row of incompressible.
  Rng rng(1006);
  const Graph g = graph::random_uniform(n, rng);
  const std::size_t compressed = incompress::compressed_graph_bits(g);
  EXPECT_GT(compressed, eg * 95 / 100);
  EXPECT_LE(compressed, eg + n * 8);  // headers only
}

}  // namespace
}  // namespace optrt
