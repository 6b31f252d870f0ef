// Tests for the whole-graph enumerative compressor, the distributed
// construction protocol, and the sampled verifier.
#include <gtest/gtest.h>

#include "bitio/codes.hpp"
#include "core/experiment.hpp"
#include "graph/generators.hpp"
#include "incompressibility/graph_compressor.hpp"
#include "model/verifier.hpp"
#include "net/construction.hpp"
#include "schemes/compact_diam2.hpp"
#include "schemes/errors.hpp"

namespace optrt {
namespace {

using graph::Graph;
using graph::Rng;

// --- Whole-graph compressor ----------------------------------------------------

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

// --- Distributed construction ---------------------------------------------------

class DistributedConstruction : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DistributedConstruction, BitIdenticalToCentralized) {
  const std::size_t n = GetParam();
  Rng rng(n + 1007);
  const Graph g = core::certified_random_graph(n, rng);
  const auto result = net::distributed_compact_construction(g);
  for (graph::NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(result.node_tables[u],
              schemes::build_compact_node(g, u, {}).bits)
        << "node " << u;
  }
}

TEST_P(DistributedConstruction, MessageAccountingMatchesFormula) {
  const std::size_t n = GetParam();
  Rng rng(n + 1008);
  const Graph g = core::certified_random_graph(n, rng);
  const auto result = net::distributed_compact_construction(g);
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_EQ(result.messages, 2 * g.edge_count());
  std::uint64_t expected_bits = 0;
  const unsigned id_width = bitio::ceil_log2(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    expected_bits += static_cast<std::uint64_t>(g.degree(v)) * g.degree(v) *
                     id_width;
  }
  EXPECT_EQ(result.message_bits, expected_bits);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DistributedConstruction,
                         ::testing::Values(48, 96));

TEST(DistributedConstructionEdge, LoadedTablesRouteCorrectly) {
  Rng rng(1009);
  const Graph g = core::certified_random_graph(64, rng);
  auto result = net::distributed_compact_construction(g);
  const schemes::CompactDiam2Scheme scheme(
      g, schemes::CompactDiam2Scheme::Options{},
      std::move(result.node_tables));
  const auto v = model::verify_scheme(g, scheme);
  EXPECT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v.max_stretch, 1.0);
}

TEST(DistributedConstructionEdge, FailsWhereCentralizedFails) {
  EXPECT_THROW(net::distributed_compact_construction(graph::chain(10)),
               schemes::SchemeInapplicable);
}

// --- Sampled verifier -----------------------------------------------------------

TEST(SampledVerifier, AgreesWithExhaustiveOnCorrectSchemes) {
  Rng rng(1010);
  const Graph g = core::certified_random_graph(96, rng);
  const schemes::CompactDiam2Scheme scheme(g, {});
  const auto sampled = model::verify_scheme_sampled(g, scheme, 2000, 7);
  EXPECT_TRUE(sampled.all_delivered);
  EXPECT_EQ(sampled.pairs_checked, 2000u);
  EXPECT_DOUBLE_EQ(sampled.max_stretch, 1.0);
}

TEST(SampledVerifier, ScalesToLargeN) {
  Rng rng(1011);
  const Graph g = core::certified_random_graph(512, rng);
  const schemes::CompactDiam2Scheme scheme(g, {});
  const auto sampled = model::verify_scheme_sampled(g, scheme, 3000, 11);
  EXPECT_TRUE(sampled.all_delivered);
  EXPECT_DOUBLE_EQ(sampled.max_stretch, 1.0);
  // Theorem 1 bound holds at this scale too.
  EXPECT_LE(scheme.space().max_node_bits(), 6u * 512);
}

}  // namespace
}  // namespace optrt
