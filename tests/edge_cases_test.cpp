// Boundary and degenerate-input tests across the public API.
#include <gtest/gtest.h>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "graph/algorithms.hpp"
#include "graph/encoding.hpp"
#include "graph/generators.hpp"
#include "graph/randomness.hpp"
#include "incompressibility/enumerative.hpp"
#include "incompressibility/permutation_code.hpp"
#include "model/verifier.hpp"
#include "net/simulator.hpp"
#include "schemes/full_information.hpp"
#include "schemes/full_table.hpp"

namespace optrt {
namespace {

TEST(EdgeCases, TinyGraphs) {
  // n = 2: one edge, both schemes route the single pair.
  graph::Graph g(2);
  g.add_edge(0, 1);
  const auto table = schemes::FullTableScheme::standard(g);
  EXPECT_TRUE(model::verify_scheme(g, table).ok());
  const auto full = schemes::FullInformationScheme::standard(g);
  EXPECT_TRUE(model::verify_full_information(g, full).exact);
}

TEST(EdgeCases, SingleNodeAndEmptyGraphs) {
  const graph::Graph one(1);
  const auto scheme = schemes::FullTableScheme::standard(one);
  const auto result = model::verify_scheme(one, scheme);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.pairs_checked, 0u);
  EXPECT_TRUE(graph::is_connected(graph::Graph(0)));
}

TEST(EdgeCases, EncodeDecodeTinySizes) {
  for (std::size_t n : {2u, 3u}) {
    graph::Rng rng(n);
    const graph::Graph g = graph::random_gnp(n, 0.5, rng);
    EXPECT_EQ(graph::decode(graph::encode(g), n), g);
  }
}

TEST(EdgeCases, BitWriterTakeLeavesEmpty) {
  bitio::BitWriter w;
  w.write_bits(0xFF, 8);
  const bitio::BitVector bits = w.take();
  EXPECT_EQ(bits.size(), 8u);
  EXPECT_EQ(w.bit_count(), 0u);
  w.write_bit(true);
  EXPECT_EQ(w.bit_count(), 1u);
}

TEST(EdgeCases, EnumerativeDegenerateEnsembles) {
  // Weight 0 and full weight have singleton ensembles: zero index bits.
  bitio::BitWriter w;
  bitio::BitVector zeros(17);
  incompress::write_fixed_weight(w, zeros);
  EXPECT_EQ(w.bit_count(), bitio::ceil_log2_plus1(17));  // weight field only
}

TEST(EdgeCases, PermutationOfSizeZeroAndOne) {
  EXPECT_TRUE(incompress::rank_permutation({}).is_zero());
  EXPECT_TRUE(incompress::rank_permutation({0}).is_zero());
  EXPECT_EQ(incompress::unrank_permutation(0, incompress::BigUint(0)).size(),
            0u);
  EXPECT_EQ(incompress::unrank_permutation(1, incompress::BigUint(0)),
            (std::vector<std::uint32_t>{0}));
}

TEST(EdgeCases, SimulatorNoMessages) {
  const graph::Graph g = graph::chain(3);
  const auto scheme = schemes::FullTableScheme::standard(g);
  net::Simulator sim(g, scheme);
  const auto stats = sim.run();
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.makespan, 0u);
}

TEST(EdgeCases, SimulatorRestoreEnablesRedelivery) {
  const graph::Graph g = graph::chain(4);
  const auto scheme = schemes::FullTableScheme::standard(g);
  net::Simulator sim(g, scheme);
  sim.fail_link(1, 2);
  sim.send(0, 3);
  EXPECT_EQ(sim.run().dropped, 1u);
  sim.restore_link(1, 2);
  sim.send(0, 3);
  const auto stats = sim.run();
  EXPECT_EQ(stats.delivered, 1u);
}

TEST(EdgeCases, MaxHopsGuardDropsLoops) {
  const graph::Graph g = graph::ring(6);
  const auto scheme = schemes::FullTableScheme::standard(g);
  net::SimulatorConfig config;
  config.max_hops = 1;  // too small for the far side of the ring
  net::Simulator sim(g, scheme, config);
  sim.send(0, 3);
  EXPECT_EQ(sim.run().dropped, 1u);
}

TEST(EdgeCases, CertifyDegenerateInputs) {
  EXPECT_FALSE(graph::certify(graph::Graph(1)).ok());
  EXPECT_FALSE(graph::certify_gnp(graph::Graph(10), 0.0).ok());
  EXPECT_FALSE(graph::certify_gnp(graph::Graph(10), 1.0).ok());
}

TEST(EdgeCases, VerifierSelfRouteThrows) {
  const graph::Graph g = graph::chain(3);
  const auto scheme = schemes::FullTableScheme::standard(g);
  model::MessageHeader h;
  EXPECT_THROW((void)scheme.next_hop(1, 1, h), std::invalid_argument);
}

}  // namespace
}  // namespace optrt
