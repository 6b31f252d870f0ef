// Property tests for the fault-injection layer: per-seed bit-identical
// plans and stats (at any thread count), fail+repair no-ops, nested
// failure prefixes, delivery monotonicity for full-information routing,
// and LiveTopology — the one fold of fault events — against a set-based
// reference, read through the Simulator and the CONGEST engine too. All
// randomness is seeded, so every property is checked deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <span>
#include <sstream>
#include <tuple>

#include "core/experiment.hpp"
#include "core/parallel.hpp"
#include "graph/generators.hpp"
#include "net/congest.hpp"
#include "net/faults.hpp"
#include "net/simulator.hpp"
#include "net/workload.hpp"
#include "schemes/compact_diam2.hpp"
#include "schemes/full_information.hpp"
#include "schemes/full_table.hpp"

namespace optrt::net {
namespace {

using graph::Graph;
using graph::Rng;

Graph certified(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return core::certified_random_graph(n, rng);
}

std::string stats_key(const SimulationStats& s) {
  std::ostringstream out;
  out << s.sent << '|' << s.delivered << '|' << s.dropped << '|'
      << s.total_hops << '|' << s.makespan << '|' << s.max_link_load << '|'
      << s.total_retries << '|' << s.deflections << '|' << s.fallback_messages
      << '|' << s.shortest_hops;
  return out.str();
}

TEST(FaultPlan, SameSeedIsBitIdentical) {
  const Graph g = certified(48, 1);
  for (const FaultModel model :
       {FaultModel::kUniform, FaultModel::kTargeted, FaultModel::kPartition,
        FaultModel::kNodes}) {
    const FaultPlan a = make_fault_plan(g, model, 40, {.seed = 7});
    const FaultPlan b = make_fault_plan(g, model, 40, {.seed = 7});
    EXPECT_EQ(a, b) << to_string(model);
    EXPECT_EQ(a.fingerprint(), b.fingerprint()) << to_string(model);
  }
  // Seed-sensitive generators produce different plans for different seeds.
  for (const FaultModel model :
       {FaultModel::kUniform, FaultModel::kPartition, FaultModel::kNodes}) {
    const FaultPlan a = make_fault_plan(g, model, 40, {.seed = 7});
    const FaultPlan b = make_fault_plan(g, model, 40, {.seed = 8});
    EXPECT_NE(a.fingerprint(), b.fingerprint()) << to_string(model);
  }
}

TEST(FaultPlan, LinkFailuresAreRealEdgesAndDeduped) {
  const Graph g = certified(48, 2);
  for (const FaultModel model :
       {FaultModel::kUniform, FaultModel::kTargeted, FaultModel::kPartition}) {
    const FaultPlan plan = make_fault_plan(g, model, 100, {.seed = 3});
    EXPECT_EQ(plan.fail_count(), 100u);
    std::set<std::pair<NodeId, NodeId>> seen;
    for (const FaultEvent& e : plan.events()) {
      ASSERT_EQ(e.kind, FaultKind::kLinkFail);
      EXPECT_TRUE(g.has_edge(e.u, e.v));
      EXPECT_TRUE(seen.emplace(std::min(e.u, e.v), std::max(e.u, e.v)).second)
          << "duplicate edge in " << to_string(model);
    }
  }
  // Requests beyond |E| are clamped, not looped on.
  const FaultPlan all =
      uniform_link_faults(g, g.edge_count() * 10, {.seed = 4});
  EXPECT_EQ(all.fail_count(), g.edge_count());
}

TEST(FaultPlan, UniformPlansAreNestedPerSeed) {
  const Graph g = certified(48, 3);
  const FaultPlan small = uniform_link_faults(g, 25, {.seed = 11});
  const FaultPlan large = uniform_link_faults(g, 90, {.seed = 11});
  ASSERT_GE(large.size(), small.size());
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small.events()[i], large.events()[i]);
  }
}

TEST(FaultPlan, RepairScheduleMirrorsFailures) {
  const Graph g = certified(48, 4);
  const FaultPlan plan = uniform_link_faults(
      g, 30, {.seed = 5, .fail_time = 10, .repair_after = 7});
  EXPECT_EQ(plan.size(), 60u);
  EXPECT_EQ(plan.fail_count(), 30u);
  for (const FaultEvent& e : plan.events()) {
    if (e.kind == FaultKind::kLinkFail) {
      EXPECT_EQ(e.time, 10u);
    } else {
      ASSERT_EQ(e.kind, FaultKind::kLinkRepair);
      EXPECT_EQ(e.time, 17u);
    }
  }
}

TEST(FaultPlan, FailThenRepairOfSameLinkIsNoOp) {
  const Graph g = certified(48, 5);
  const auto scheme = schemes::FullTableScheme::standard(g);
  const auto traffic = all_pairs(48);

  const auto run_with = [&](const FaultPlan& plan) {
    Simulator sim(g, scheme, {.measure_stretch = true});
    sim.schedule(plan);
    for (const auto& [u, v] : traffic) sim.send(u, v, /*at_time=*/5);
    return stats_key(sim.run());
  };

  // Same instant: fail immediately undone by repair (stable plan order).
  FaultPlan same_instant;
  same_instant.add({0, FaultKind::kLinkFail, 0, g.neighbors(0)[0]});
  same_instant.add({0, FaultKind::kLinkRepair, 0, g.neighbors(0)[0]});
  // Fail at 0, repair at 1 — all traffic flows at t >= 5, after the repair.
  const FaultPlan repaired_before_traffic = uniform_link_faults(
      g, 60, {.seed = 6, .fail_time = 0, .repair_after = 1});

  const std::string baseline = run_with(FaultPlan{});
  EXPECT_EQ(run_with(same_instant), baseline);
  EXPECT_EQ(run_with(repaired_before_traffic), baseline);

  Simulator sim(g, scheme);
  sim.schedule(same_instant);
  sim.run();
  EXPECT_TRUE(sim.link_up(0, g.neighbors(0)[0]));
}

TEST(FaultPlan, NodeFaultIsolatesAndRepairRestores) {
  const Graph g = graph::star(6);
  const auto scheme = schemes::FullTableScheme::standard(g);
  // Failing the hub (node 0) severs every leaf pair; repairing it at t=10
  // lets later traffic through.
  FaultPlan plan;
  plan.add({0, FaultKind::kNodeFail, 0, 0});
  plan.add({10, FaultKind::kNodeRepair, 0, 0});
  Simulator sim(g, scheme);
  sim.schedule(plan);
  const auto blocked = sim.send(1, 2, 0);
  const auto after_repair = sim.send(3, 4, 10);
  const SimulationStats stats = sim.run();
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_FALSE(sim.records()[blocked].delivered);
  EXPECT_TRUE(sim.records()[blocked].dropped_on_failure);
  EXPECT_TRUE(sim.records()[after_repair].delivered);
  EXPECT_TRUE(sim.node_up(0));
}

TEST(FaultSweep, StatsBitIdenticalAcrossThreadCounts) {
  // The bench_failures shape in miniature: a seeded grid of (graph,
  // fraction, scheme) cells, each deriving every input from its own
  // SplitMix64 stream. The serialized stats vector must not depend on the
  // worker count.
  const std::vector<std::uint64_t> graph_seeds = {1, 2};
  const std::vector<std::size_t> counts = {0, 60, 200};
  const std::size_t cells = graph_seeds.size() * counts.size() * 2;

  const auto sweep = [&](std::size_t threads) {
    return core::parallel_map<std::string>(
        threads, cells, [&](std::size_t idx) {
          const std::size_t variant = idx % 2;
          const std::size_t c = (idx / 2) % counts.size();
          const std::uint64_t gs = graph_seeds[idx / (2 * counts.size())];
          Rng rng(core::point_seed(17, 48, gs));
          const Graph g = core::certified_random_graph(48, rng);
          const FaultPlan plan = uniform_link_faults(
              g, counts[c], {.seed = core::point_seed(17, gs, 1)});
          Rng traffic_rng(core::point_seed(17, gs, 2));
          const auto traffic = uniform_random(48, 500, traffic_rng);
          std::unique_ptr<model::RoutingScheme> scheme;
          if (variant == 0) {
            scheme = std::make_unique<schemes::CompactDiam2Scheme>(
                g, schemes::CompactDiam2Scheme::Options{});
          } else {
            scheme = std::make_unique<schemes::FullInformationScheme>(
                schemes::FullInformationScheme::standard(g));
          }
          Simulator sim(g, *scheme, {.measure_stretch = true});
          sim.schedule(plan);
          for (const auto& [u, v] : traffic) sim.send(u, v);
          return stats_key(sim.run());
        });
  };

  const auto at1 = sweep(1);
  EXPECT_EQ(sweep(2), at1);
  EXPECT_EQ(sweep(8), at1);
}

TEST(FaultSweep, FullInformationDeliveryMonotoneInFailureCount) {
  // Uniform plans are prefix-nested per seed, so growing the count only
  // removes shortest-path edges — delivered pairs can only shrink.
  for (const std::uint64_t graph_seed : {1ull, 2ull, 3ull}) {
    const Graph g = certified(64, graph_seed);
    const auto scheme = schemes::FullInformationScheme::standard(g);
    const auto traffic = all_pairs(64);
    std::size_t previous = traffic.size() + 1;
    for (const std::size_t count : {0u, 40u, 80u, 160u, 320u}) {
      Simulator sim(g, scheme);
      sim.schedule(uniform_link_faults(g, count, {.seed = 21}));
      for (const auto& [u, v] : traffic) sim.send(u, v);
      const SimulationStats stats = sim.run();
      EXPECT_LE(stats.delivered, previous)
          << "graph seed " << graph_seed << ", count " << count;
      previous = stats.delivered;
    }
  }
}

TEST(FaultModelNames, RoundTrip) {
  for (const FaultModel model :
       {FaultModel::kUniform, FaultModel::kTargeted, FaultModel::kPartition,
        FaultModel::kNodes}) {
    const auto parsed = parse_fault_model(to_string(model));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, model);
  }
  EXPECT_FALSE(parse_fault_model("meteor").has_value());
}

// --- LiveTopology edge-case pins (the churn layer's event expander) -------

TEST(LiveTopology, RepairingANeverFailedLinkIsADeterministicNoOp) {
  const Graph g = certified(12, 3);
  const auto edges = edge_list(g);
  LiveTopology live(g);
  // Repair of a live link, twice, plus repair of a non-edge: no deltas,
  // no state change.
  const auto [u, v] = edges.front();
  EXPECT_TRUE(live.apply({1, FaultKind::kLinkRepair, u, v}).empty());
  EXPECT_TRUE(live.apply({1, FaultKind::kLinkRepair, u, v}).empty());
  EXPECT_TRUE(live.apply({1, FaultKind::kLinkRepair, u, u}).empty());
  EXPECT_EQ(live.down_link_count(), 0u);
  EXPECT_TRUE(live.link_live(u, v));
}

TEST(LiveTopology, DuplicateFailAndRepairAtTheSameTickAreNoOps) {
  const Graph g = certified(12, 3);
  const auto [u, v] = edge_list(g).front();
  LiveTopology live(g);

  // First fail emits exactly one down delta; the same-tick duplicate is
  // swallowed.
  auto deltas = live.apply({5, FaultKind::kLinkFail, u, v});
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas.front(), (model::TopologyEvent{u, v, false}));
  EXPECT_TRUE(live.apply({5, FaultKind::kLinkFail, u, v}).empty());
  EXPECT_EQ(live.down_link_count(), 1u);

  // Same for repair: one up delta, then a same-tick duplicate no-op.
  deltas = live.apply({5, FaultKind::kLinkRepair, u, v});
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas.front(), (model::TopologyEvent{u, v, true}));
  EXPECT_TRUE(live.apply({5, FaultKind::kLinkRepair, u, v}).empty());
  EXPECT_EQ(live.down_link_count(), 0u);

  // Node events: duplicate fail and duplicate repair are no-ops too.
  const auto first = live.apply({6, FaultKind::kNodeFail, u, u});
  EXPECT_EQ(first.size(), g.degree(u));
  EXPECT_TRUE(live.apply({6, FaultKind::kNodeFail, u, u}).empty());
  EXPECT_EQ(live.apply({7, FaultKind::kNodeRepair, u, u}).size(), first.size());
  EXPECT_TRUE(live.apply({7, FaultKind::kNodeRepair, u, u}).empty());
}

TEST(LiveTopology, FailingANonEdgeIsANoOp) {
  // A 4-ring: {0,2} and {1,3} are non-edges.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(0, 3);
  LiveTopology live(g);
  EXPECT_TRUE(live.apply({1, FaultKind::kLinkFail, 0, 2}).empty());
  EXPECT_TRUE(live.apply({1, FaultKind::kLinkFail, 1, 3}).empty());
  EXPECT_EQ(live.down_link_count(), 0u);
  EXPECT_EQ(live.live_graph().edge_count(), 4u);
}

TEST(LiveTopology, DoublyFailedLinkNeedsBothRepairs) {
  // A link failed explicitly *and* via its endpoint's node failure only
  // comes back up when both causes are repaired, and the up delta is
  // emitted exactly once — at the flip.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  LiveTopology live(g);
  ASSERT_EQ(live.apply({1, FaultKind::kLinkFail, 0, 1}).size(), 1u);
  // Node 0 fails: {0,1} is already down, so no further delta for it.
  EXPECT_TRUE(live.apply({2, FaultKind::kNodeFail, 0, 0}).empty());
  // Repairing the link while node 0 is down flips nothing yet.
  EXPECT_TRUE(live.apply({3, FaultKind::kLinkRepair, 0, 1}).empty());
  EXPECT_FALSE(live.link_live(0, 1));
  // Node repair is the second (last) cause to clear: now the delta fires.
  const auto deltas = live.apply({4, FaultKind::kNodeRepair, 0, 0});
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas.front(), (model::TopologyEvent{0, 1, true}));
  EXPECT_TRUE(live.link_live(0, 1));
  EXPECT_EQ(live.down_link_count(), 0u);
}

// --- One fold: LiveTopology against a set-based reference ---------------

/// The reference fold: a failed-link set keyed by the canonical pair and
/// a failed-node set. A link is up iff neither it nor an endpoint is in a
/// set; events naming no link or node only add keys no link has.
struct ReferenceFold {
  std::set<std::pair<NodeId, NodeId>> failed_links;
  std::set<NodeId> failed_nodes;

  void apply(const FaultEvent& e) {
    const std::pair<NodeId, NodeId> key{std::min(e.u, e.v),
                                        std::max(e.u, e.v)};
    switch (e.kind) {
      case FaultKind::kLinkFail:
        failed_links.insert(key);
        break;
      case FaultKind::kLinkRepair:
        failed_links.erase(key);
        break;
      case FaultKind::kNodeFail:
        failed_nodes.insert(e.u);
        break;
      case FaultKind::kNodeRepair:
        failed_nodes.erase(e.u);
        break;
    }
  }
  [[nodiscard]] bool up(NodeId u, NodeId v) const {
    return !failed_nodes.contains(u) && !failed_nodes.contains(v) &&
           !failed_links.contains({std::min(u, v), std::max(u, v)});
  }
};

/// A seeded stream at times 1, 2, …: mostly real links in either
/// orientation, plus repeats of recent events (duplicate fails and
/// repairs), random pairs (non-edges and self-pairs), ids n and n + 1
/// (out of range), and node events that overlap the link failures.
std::vector<FaultEvent> random_stream(const Graph& g, std::size_t count,
                                      std::uint64_t seed) {
  const auto edges = edge_list(g);
  const auto n = static_cast<NodeId>(g.node_count());
  Rng rng(seed);
  std::uniform_int_distribution<int> shape(0, 9);
  std::uniform_int_distribution<std::size_t> edge(0, edges.size() - 1);
  std::uniform_int_distribution<NodeId> node(0, n + 1);
  std::vector<FaultEvent> out;
  for (std::size_t i = 0; i < count; ++i) {
    FaultEvent e;
    const int s = shape(rng);
    if (s < 2 && !out.empty()) {
      e = out[out.size() - 1 - rng() % std::min<std::size_t>(out.size(), 4)];
    } else if (s < 8) {
      e.kind = rng() % 2 == 0 ? FaultKind::kLinkFail : FaultKind::kLinkRepair;
      std::tie(e.u, e.v) = edges[edge(rng)];
      if (rng() % 2 == 0) std::swap(e.u, e.v);
    } else if (s < 9) {
      e.kind = rng() % 2 == 0 ? FaultKind::kLinkFail : FaultKind::kLinkRepair;
      e.u = node(rng);
      e.v = node(rng);
    } else {
      e.kind = rng() % 2 == 0 ? FaultKind::kNodeFail : FaultKind::kNodeRepair;
      e.u = e.v = node(rng);
    }
    e.time = i + 1;
    out.push_back(e);
  }
  return out;
}

/// Records, at every quiescence pulse, whether each of its ports is up,
/// and sends one message over every port per phase, so phase k's round
/// applies the events at time k and the pulse after it reads the state
/// they leave.
class PortProbe final : public congest::ProtocolNode {
 public:
  explicit PortProbe(std::size_t phases) : phases_(phases) {}
  void on_start(congest::Context& ctx) override { tick(ctx); }
  void on_round(congest::Context&,
                std::span<const congest::Received>) override {}
  bool on_phase_end(congest::Context& ctx) override {
    std::vector<bool> row(ctx.degree());
    for (graph::PortId p = 0; p < row.size(); ++p) row[p] = ctx.port_up(p);
    log.push_back(std::move(row));
    if (log.size() == phases_) return false;
    tick(ctx);
    return true;
  }
  std::vector<std::vector<bool>> log;  ///< per phase, per port

 private:
  static void tick(congest::Context& ctx) {
    ctx.send_all(congest::Message{1, 1, {}});
  }
  std::size_t phases_;
};

TEST(LiveTopology, MatchesASetBasedFoldOnRandomStreams) {
  const Graph graphs[] = {certified(20, 3), graph::star(7),
                          graph::TopologyFamily::power_law(2).make(30, 4)};
  constexpr std::size_t kEvents = 240;
  for (const Graph& g : graphs) {
    const auto scheme = schemes::FullTableScheme::standard(g);
    const auto n = static_cast<NodeId>(g.node_count());
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("n " + std::to_string(n) + " seed " + std::to_string(seed));
      const std::vector<FaultEvent> stream = random_stream(g, kEvents, seed);
      LiveTopology live(g);
      ReferenceFold ref;
      Simulator sim(g, scheme);
      // up[k][arc]: the reference state after events 0..k.
      std::vector<std::vector<bool>> up(kEvents);
      for (std::size_t k = 0; k < kEvents; ++k) {
        const FaultEvent& e = stream[k];
        SCOPED_TRACE("event " + std::to_string(k));
        ReferenceFold after = ref;
        after.apply(e);
        std::vector<model::TopologyEvent> flips;
        for (const auto& [u, v] : edge_list(g)) {
          if (ref.up(u, v) != after.up(u, v)) {
            flips.push_back({u, v, after.up(u, v)});
          }
        }
        EXPECT_EQ(live.apply(e), flips);
        ref = std::move(after);
        sim.schedule(FaultPlan({e}));
        sim.run();  // applies every scheduled event
        std::size_t down = 0;
        for (NodeId u = 0; u < n; ++u) {
          for (graph::PortId p = 0; p < g.degree(u); ++p) {
            const NodeId v = g.neighbor_at(u, p);
            const bool expected = ref.up(u, v);
            ASSERT_EQ(live.arc_live(g.arc_begin(u) + p), expected)
                << u << " -> " << v;
            ASSERT_EQ(live.link_live(u, v), expected);
            ASSERT_EQ(sim.link_up(u, v), expected);
            up[k].push_back(expected);
            down += expected ? 0 : 1;
          }
        }
        EXPECT_EQ(live.down_link_count(), down / 2);
        for (NodeId u = 0; u < n + 2; ++u) {
          const bool expected = u < n && !ref.failed_nodes.contains(u);
          ASSERT_EQ(live.node_up(u), expected);
          ASSERT_EQ(sim.node_up(u), expected);
        }
      }

      // The engine replays the same stream, one event per round. The k-th
      // round's messages cross every arc in the round that applies event
      // k, so it drops one message per arc that is down after event k.
      std::vector<PortProbe> probes(n, PortProbe(kEvents));
      std::vector<congest::ProtocolNode*> ptrs;
      for (PortProbe& probe : probes) ptrs.push_back(&probe);
      congest::Engine engine(g, {.threads = 1});
      engine.schedule(FaultPlan(stream));
      const congest::RunStats run = engine.run(ptrs);
      ASSERT_EQ(run.status, congest::RunStatus::kOk);
      std::size_t dropped = 0;
      for (const std::vector<bool>& arcs : up) {
        dropped += static_cast<std::size_t>(
            std::count(arcs.begin(), arcs.end(), false));
      }
      EXPECT_EQ(run.dropped, dropped);
      for (std::size_t k = 0; k < kEvents; ++k) {
        for (NodeId u = 0; u < n; ++u) {
          ASSERT_EQ(probes[u].log.size(), kEvents);
          for (graph::PortId p = 0; p < g.degree(u); ++p) {
            ASSERT_EQ(probes[u].log[k][p], up[k][g.arc_begin(u) + p])
                << "event " << k << " node " << u << " port " << p;
          }
        }
      }
    }
  }
}

TEST(FaultPlan, FingerprintsArePinned) {
  // Every generator at three seeds on two graphs, with a repair schedule:
  // the constants pin each plan's exact event sequence, so any change to
  // the order in which a generator fails links or nodes shows here.
  const Graph graphs[] = {certified(48, 9),
                          graph::TopologyFamily::power_law(2).make(64, 9)};
  const FaultModel models[] = {FaultModel::kUniform, FaultModel::kTargeted,
                               FaultModel::kPartition, FaultModel::kNodes};
  constexpr std::uint64_t kPinned[2][4][3] = {
      {{16270586641861421273ULL,
        16076216194954746728ULL,
        14276280603378325643ULL},
       {15275792099223597644ULL,
        15275792099223597644ULL,
        15275792099223597644ULL},
       {12648738319985805884ULL,
        9725588764176446010ULL,
        5547177511056644360ULL},
       {6214797960828997298ULL,
        15974556903208897174ULL,
        10071460044550219587ULL}},
      {{9230276132108810200ULL,
        5041560807868294414ULL,
        17466399783238197979ULL},
       {14755385346962299900ULL,
        14755385346962299900ULL,
        14755385346962299900ULL},
       {4280434911126371006ULL,
        9950767800512433664ULL,
        5633530707489313795ULL},
       {1457888278852459860ULL,
        13132957361036961133ULL,
        15883781046676550109ULL}},
  };
  for (std::size_t gi = 0; gi < 2; ++gi) {
    for (std::size_t mi = 0; mi < 4; ++mi) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const FaultPlan plan = make_fault_plan(
            graphs[gi], models[mi], 20,
            {.seed = seed, .fail_time = 3, .repair_after = 5});
        EXPECT_EQ(plan.fingerprint(), kPinned[gi][mi][seed - 1])
            << "graph " << gi << " " << to_string(models[mi]) << " seed "
            << seed;
      }
    }
  }
}

TEST(FaultPlan, TargetedAttackHitsHighestDegreeEdges) {
  const Graph g = graph::star(8);  // hub 0: all edges share the hub
  const FaultPlan plan = targeted_link_faults(g, 3, {.seed = 1});
  ASSERT_EQ(plan.fail_count(), 3u);
  for (const FaultEvent& e : plan.events()) {
    EXPECT_EQ(e.u, 0u);  // lexicographic tie-break keeps hub first
  }
}

}  // namespace
}  // namespace optrt::net
