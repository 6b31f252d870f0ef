// Simulator tests: hop-by-hop semantics, failure injection, and the
// full-information rerouting capability (§1's motivation for them).
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "net/faults.hpp"
#include "graph/generators.hpp"
#include "model/verifier.hpp"
#include "net/simulator.hpp"
#include "net/workload.hpp"
#include "schemes/full_information.hpp"
#include "schemes/full_table.hpp"
#include "schemes/sequential_search.hpp"

namespace optrt::net {
namespace {

using graph::Graph;
using graph::Rng;

Graph certified(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return core::certified_random_graph(n, rng);
}

TEST(Simulator, DeliversAllPairsAtShortestDistance) {
  const Graph g = certified(48, 1);
  const auto scheme = schemes::FullTableScheme::standard(g);
  Simulator sim(g, scheme);
  for (const auto& [src, dst] : all_pairs(48)) sim.send(src, dst);
  const SimulationStats stats = sim.run();
  EXPECT_EQ(stats.delivered, 48u * 47u);
  EXPECT_EQ(stats.dropped, 0u);
  // Diameter-2 graph: mean hops within [1, 2].
  EXPECT_GE(stats.mean_hops(), 1.0);
  EXPECT_LE(stats.mean_hops(), 2.0);
}

TEST(Simulator, HopCountsMatchRecords) {
  const Graph g = graph::chain(10);
  const auto scheme = schemes::FullTableScheme::standard(g);
  Simulator sim(g, scheme);
  const auto id = sim.send(0, 9);
  sim.run();
  const MessageRecord& r = sim.records()[id];
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.hops, 9u);
  EXPECT_EQ(r.arrival_time, 9u);  // unit latency
}

TEST(Simulator, LatencyConfigScalesArrivalTimes) {
  const Graph g = graph::chain(5);
  const auto scheme = schemes::FullTableScheme::standard(g);
  SimulatorConfig config;
  config.link_latency = 3;
  Simulator sim(g, scheme, config);
  const auto id = sim.send(0, 4, /*at_time=*/10);
  sim.run();
  EXPECT_EQ(sim.records()[id].arrival_time, 10u + 4u * 3u);
}

TEST(Simulator, RejectsSelfSend) {
  const Graph g = graph::chain(4);
  const auto scheme = schemes::FullTableScheme::standard(g);
  Simulator sim(g, scheme);
  EXPECT_THROW(sim.send(2, 2), std::invalid_argument);
}

TEST(Simulator, PlainSchemeDropsOnFailedLink) {
  const Graph g = graph::chain(6);
  const auto scheme = schemes::FullTableScheme::standard(g);
  Simulator sim(g, scheme);
  sim.fail_link(2, 3);
  sim.send(0, 5);
  const SimulationStats stats = sim.run();
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_TRUE(sim.records()[0].dropped_on_failure);
}

TEST(Simulator, FullInformationReroutesAroundFailure) {
  const Graph g = certified(48, 2);
  const auto scheme = schemes::FullInformationScheme::standard(g);
  // Fail one link on a shortest path; alternative shortest paths exist on
  // random graphs (diameter 2, many common neighbours).
  Simulator sim(g, scheme);
  graph::NodeId dst = 0;
  for (graph::NodeId v = 1; v < 48; ++v) {
    if (!g.has_edge(0, v)) {
      dst = v;
      break;
    }
  }
  ASSERT_NE(dst, 0u);
  // Fail the first-listed shortest-path edge out of 0.
  const auto hops = scheme.all_next_hops(0, dst);
  ASSERT_GT(hops.size(), 1u);  // random graphs have alternatives
  sim.fail_link(0, hops[0]);
  sim.send(0, dst);
  const SimulationStats stats = sim.run();
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(sim.records()[0].hops, 2u);  // still a shortest path
}

TEST(Simulator, FullInformationDropsWhenAllShortestPathsFail) {
  const Graph g = graph::star(6);
  const auto scheme = schemes::FullInformationScheme::standard(g);
  Simulator sim(g, scheme);
  sim.fail_link(1, 0);  // the only edge out of leaf 1
  sim.send(1, 5);
  const SimulationStats stats = sim.run();
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_TRUE(sim.records()[0].dropped_on_failure);
}

TEST(Simulator, LinkStateToggles) {
  const Graph g = graph::chain(4);
  const auto scheme = schemes::FullTableScheme::standard(g);
  Simulator sim(g, scheme);
  EXPECT_TRUE(sim.link_up(1, 2));
  sim.fail_link(1, 2);
  EXPECT_FALSE(sim.link_up(1, 2));
  EXPECT_FALSE(sim.link_up(2, 1));  // undirected
  sim.restore_link(2, 1);
  EXPECT_TRUE(sim.link_up(1, 2));
}

TEST(Simulator, LinkEventsOnNonEdgesAreNoOps) {
  // On a 4-chain, an out-of-range pair and a self-pair name no link; they
  // must not fail one ({0, 4} and {3, 3} share E(G) indices with the real
  // links {1, 2} and {2, 3}).
  const Graph g = graph::chain(4);
  const auto scheme = schemes::FullTableScheme::standard(g);
  Simulator sim(g, scheme);
  sim.fail_link(0, 4);
  sim.fail_link(3, 3);
  sim.fail_link(0, 2);
  for (const auto& [u, v] : edge_list(g)) EXPECT_TRUE(sim.link_up(u, v));
  EXPECT_FALSE(sim.link_up(0, 2));  // not a link at all
  sim.send(0, 3);
  EXPECT_EQ(sim.run().delivered, 1u);
}

/// Names a node two steps along a chain as the next hop: never a
/// neighbour, so the carrier must reject it.
class SkippingScheme final : public model::RoutingScheme {
 public:
  explicit SkippingScheme(std::size_t n) : n_(n) {}
  [[nodiscard]] std::string name() const override { return "skipping"; }
  [[nodiscard]] model::Model routing_model() const override {
    return model::kIIalpha;
  }
  [[nodiscard]] std::size_t node_count() const override { return n_; }
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId,
                                model::MessageHeader&) const override {
    return static_cast<NodeId>((u + 2) % n_);
  }
  [[nodiscard]] model::SpaceReport space() const override { return {}; }

 private:
  std::size_t n_;
};

TEST(Simulator, NonNeighbourNextHopThrows) {
  const Graph g = graph::chain(6);
  const SkippingScheme scheme(6);
  Simulator sim(g, scheme);
  sim.send(0, 5);
  EXPECT_THROW(sim.run(), std::logic_error);
  // Also when the node holding the message is down.
  Simulator down(g, scheme);
  FaultPlan plan;
  plan.add({0, FaultKind::kNodeFail, 0, 0});
  down.schedule(plan);
  down.send(0, 5);
  EXPECT_THROW(down.run(), std::logic_error);
}

TEST(Simulator, HeaderStateTravelsWithTheMessage) {
  // Sequential search needs its probe state carried across hops — two
  // concurrent messages must not share headers.
  const Graph g = certified(48, 3);
  const schemes::SequentialSearchScheme scheme(g);
  Simulator sim(g, scheme);
  std::size_t sent = 0;
  for (graph::NodeId v = 1; v < 48 && sent < 8; ++v) {
    if (!g.has_edge(0, v)) {
      sim.send(0, v);
      ++sent;
    }
  }
  const SimulationStats stats = sim.run();
  EXPECT_EQ(stats.delivered, sent);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST(Simulator, MaxHopsZeroResolvesToDefaultBudget) {
  const Graph g = graph::chain(12);
  const auto scheme = schemes::FullTableScheme::standard(g);
  // The 0 sentinel resolves to the shared verifier budget at construction.
  Simulator defaulted(g, scheme);
  EXPECT_EQ(defaulted.config().max_hops, model::default_hop_budget(12));
  // An explicit budget is preserved verbatim, and binds: a 12-chain route
  // of 11 hops dies under a budget of 3.
  SimulatorConfig config;
  config.max_hops = 3;
  Simulator tight(g, scheme, config);
  EXPECT_EQ(tight.config().max_hops, 3u);
  tight.send(0, 11);
  const SimulationStats stats = tight.run();
  EXPECT_EQ(stats.delivered, 0u);
  EXPECT_EQ(stats.dropped, 1u);
}

TEST(Simulator, SerializeLinksQueuesFifoPerLink) {
  const Graph g = graph::star(4);
  const auto scheme = schemes::FullTableScheme::standard(g);
  SimulatorConfig config;
  config.serialize_links = true;
  Simulator sim(g, scheme, config);
  // Both messages need hub link 1->0 at t=0; serialization admits them in
  // send order, so the second waits one slot at every contended hop.
  const auto first = sim.send(1, 2, 0);
  const auto second = sim.send(1, 2, 0);
  const SimulationStats stats = sim.run();
  EXPECT_EQ(stats.delivered, 2u);
  EXPECT_EQ(sim.records()[first].arrival_time, 2u);
  EXPECT_EQ(sim.records()[second].arrival_time, 3u);
  EXPECT_EQ(stats.makespan, 3u);
  EXPECT_EQ(stats.max_link_load, 2u);
}

TEST(Simulator, MakespanIsLastArrival) {
  const Graph g = graph::chain(8);
  const auto scheme = schemes::FullTableScheme::standard(g);
  Simulator sim(g, scheme);
  sim.send(0, 7);        // 7 hops
  sim.send(3, 4);        // 1 hop
  const SimulationStats stats = sim.run();
  EXPECT_EQ(stats.makespan, 7u);
}

// --- Workloads ---------------------------------------------------------------

TEST(Workload, AllPairsCountAndDistinctness) {
  const auto pairs = all_pairs(7);
  EXPECT_EQ(pairs.size(), 42u);
  for (const auto& [u, v] : pairs) EXPECT_NE(u, v);
}

TEST(Workload, UniformRandomRespectsBounds) {
  Rng rng(4);
  const auto pairs = uniform_random(10, 100, rng);
  EXPECT_EQ(pairs.size(), 100u);
  for (const auto& [u, v] : pairs) {
    EXPECT_LT(u, 10u);
    EXPECT_LT(v, 10u);
    EXPECT_NE(u, v);
  }
}

TEST(Workload, HotspotTargetsOneNode) {
  const auto pairs = hotspot(6, 2);
  EXPECT_EQ(pairs.size(), 5u);
  for (const auto& [u, v] : pairs) {
    EXPECT_EQ(v, 2u);
    EXPECT_NE(u, 2u);
  }
}

TEST(Workload, PermutationTrafficIsFixpointFree) {
  Rng rng(5);
  const auto pairs = permutation_traffic(64, rng);
  EXPECT_GE(pairs.size(), 62u);
  std::vector<int> out_count(64, 0);
  for (const auto& [u, v] : pairs) {
    EXPECT_NE(u, v);
    ++out_count[u];
  }
  for (int c : out_count) EXPECT_LE(c, 1);
}

TEST(Workload, EndToEndPermutationOnCertifiedGraph) {
  const Graph g = certified(64, 6);
  const auto scheme = schemes::FullTableScheme::standard(g);
  Simulator sim(g, scheme);
  Rng rng(7);
  for (const auto& [u, v] : permutation_traffic(64, rng)) sim.send(u, v);
  const SimulationStats stats = sim.run();
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_LE(stats.mean_hops(), 2.0);
}

}  // namespace
}  // namespace optrt::net
