// Cross-cutting coverage: simulator ordering and load accounting,
// construction-protocol options, label introspection, and scheme-option
// variants not exercised elsewhere.
#include <gtest/gtest.h>

#include "bitio/bit_stream.hpp"
#include "core/experiment.hpp"
#include "graph/generators.hpp"
#include "model/verifier.hpp"
#include "net/construction.hpp"
#include "net/simulator.hpp"
#include "net/workload.hpp"
#include "schemes/compact_diam2.hpp"
#include "schemes/full_table.hpp"
#include "schemes/hub.hpp"
#include "schemes/neighbor_label.hpp"
#include "incompressibility/theorem6.hpp"

namespace optrt {
namespace {

using graph::Graph;
using graph::Rng;

Graph certified(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return core::certified_random_graph(n, rng);
}

// --- Simulator link loads ------------------------------------------------------

TEST(LinkLoad, CountsDirectedTraffic) {
  const Graph g = graph::chain(4);
  const auto scheme = schemes::FullTableScheme::standard(g);
  net::Simulator sim(g, scheme);
  sim.send(0, 3);
  sim.send(0, 3);
  sim.send(3, 0);
  const auto stats = sim.run();
  EXPECT_EQ(sim.link_load(0, 1), 2u);
  EXPECT_EQ(sim.link_load(1, 0), 1u);
  EXPECT_EQ(sim.link_load(1, 2), 2u);
  EXPECT_EQ(stats.max_link_load, 2u);
  EXPECT_EQ(sim.link_load(2, 0), 0u);  // never used
}

TEST(LinkLoad, HubConcentrationIsVisible) {
  const Graph g = certified(96, 1401);
  const schemes::HubScheme hub(g);
  const schemes::CompactDiam2Scheme compact(g, {});
  Rng rng(1402);
  const auto traffic = net::permutation_traffic(96, rng);
  net::Simulator hub_sim(g, hub);
  net::Simulator compact_sim(g, compact);
  for (const auto& [u, v] : traffic) {
    hub_sim.send(u, v);
    compact_sim.send(u, v);
  }
  const auto hub_stats = hub_sim.run();
  const auto compact_stats = compact_sim.run();
  EXPECT_GT(hub_stats.max_link_load, compact_stats.max_link_load);
}

TEST(Simulator, FifoTieBreakAtEqualTimes) {
  // Two messages injected at the same instant on the same route keep their
  // injection order in delivery (same arrival times, stable processing).
  const Graph g = graph::chain(3);
  const auto scheme = schemes::FullTableScheme::standard(g);
  net::Simulator sim(g, scheme);
  const auto a = sim.send(0, 2, 5);
  const auto b = sim.send(0, 2, 5);
  sim.run();
  EXPECT_TRUE(sim.records()[a].delivered);
  EXPECT_TRUE(sim.records()[b].delivered);
  EXPECT_EQ(sim.records()[a].arrival_time, sim.records()[b].arrival_time);
}

TEST(Simulator, StaggeredInjectionTimes) {
  const Graph g = graph::chain(5);
  const auto scheme = schemes::FullTableScheme::standard(g);
  net::Simulator sim(g, scheme);
  const auto early = sim.send(0, 4, 0);
  const auto late = sim.send(0, 4, 100);
  const auto stats = sim.run();
  EXPECT_EQ(sim.records()[early].arrival_time, 4u);
  EXPECT_EQ(sim.records()[late].arrival_time, 104u);
  EXPECT_EQ(stats.makespan, 104u);
}

// --- Distributed construction variants ------------------------------------------

TEST(ConstructionVariants, GreedyAndRefinedMatchCentralized) {
  const Graph g = certified(64, 1403);
  for (const bool greedy : {false, true}) {
    for (const bool refined : {false, true}) {
      schemes::CompactNodeOptions opt;
      opt.greedy_cover = greedy;
      opt.threshold_log = refined;
      const auto result = net::distributed_compact_construction(g, opt);
      for (graph::NodeId u = 0; u < 8; ++u) {
        EXPECT_EQ(result.node_tables[u],
                  schemes::build_compact_node(g, u, opt).bits)
            << "greedy=" << greedy << " refined=" << refined << " u=" << u;
      }
    }
  }
}

// --- Theorem 6 codec under the refined threshold ---------------------------------

TEST(Theorem6Variants, RefinedThresholdRoundTrips) {
  const Graph g = certified(64, 1404);
  schemes::CompactNodeOptions opt;
  opt.threshold_log = true;
  const auto r = incompress::theorem6_encode(g, 5, opt);
  EXPECT_EQ(incompress::theorem6_decode(r.description.bits, 64, opt), g);
}

// --- Label introspection ----------------------------------------------------------

TEST(NeighborLabelIntrospection, LabelsContainIdAndCover) {
  const Graph g = certified(64, 1405);
  const schemes::NeighborLabelScheme scheme(g);
  for (graph::NodeId u = 0; u < 64; ++u) {
    const bitio::BitVector& label = scheme.bit_label(u);
    bitio::BitReader r(label);
    EXPECT_EQ(r.read_bits(6), u);  // id field, ⌈log 64⌉ = 6 bits
    const auto count = r.read_bits(6);
    EXPECT_GT(count, 0u);
    EXPECT_EQ(label.size(), 6u * (2 + count));
    // Every listed cover node is a neighbour of u.
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto c = static_cast<graph::NodeId>(r.read_bits(6));
      EXPECT_TRUE(g.has_edge(u, c));
    }
  }
}

// --- Compact scheme option matrix ---------------------------------------------------

TEST(CompactOptionMatrix, AllFourVariantsShortestPath) {
  const Graph g = certified(64, 1406);
  for (const bool neighbors_known : {true, false}) {
    for (const bool greedy : {false, true}) {
      schemes::CompactDiam2Scheme::Options opt;
      opt.neighbors_known = neighbors_known;
      opt.node.greedy_cover = greedy;
      const schemes::CompactDiam2Scheme scheme(g, opt);
      const auto result = model::verify_scheme(g, scheme);
      EXPECT_TRUE(result.ok());
      EXPECT_DOUBLE_EQ(result.max_stretch, 1.0);
    }
  }
}

}  // namespace
}  // namespace optrt
