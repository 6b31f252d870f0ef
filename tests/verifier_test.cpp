// Verifier tests: the §1 route/stretch semantics, including detection of
// misbehaving schemes, the sampled verifier against the exhaustive one,
// plus the differential harness pinning the sharded verifier to the
// serial reference on every scheme in src/schemes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "graph/generators.hpp"
#include "graph/ports.hpp"
#include "model/verifier.hpp"
#include "schemes/compact_diam2.hpp"
#include "schemes/compiler.hpp"
#include "schemes/errors.hpp"
#include "schemes/full_information.hpp"
#include "schemes/full_table.hpp"
#include "schemes/hierarchical.hpp"
#include "schemes/hub.hpp"
#include "schemes/interval.hpp"
#include "schemes/k_interval.hpp"
#include "schemes/landmark.hpp"
#include "schemes/neighbor_label.hpp"
#include "schemes/routing_center.hpp"
#include "schemes/sequential_search.hpp"

namespace optrt::model {
namespace {

using graph::Graph;

/// A deliberately broken scheme for negative tests.
class MisbehavingScheme final : public RoutingScheme {
 public:
  enum class Mode { kNonNeighborHop, kLoopForever, kDetour };

  MisbehavingScheme(const Graph& g, Mode mode) : g_(&g), mode_(mode) {}

  [[nodiscard]] std::string name() const override { return "misbehaving"; }
  [[nodiscard]] Model routing_model() const override { return kIIalpha; }
  [[nodiscard]] std::size_t node_count() const override {
    return g_->node_count();
  }
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest,
                                MessageHeader&) const override {
    switch (mode_) {
      case Mode::kNonNeighborHop:
        return dest;  // teleport attempt: usually not an incident edge
      case Mode::kLoopForever:
        return g_->neighbors(u)[0];  // ping-pong on a chain
      case Mode::kDetour: {
        // Correct but wasteful: route to the highest neighbour unless the
        // destination is adjacent.
        if (g_->has_edge(u, dest)) return dest;
        const auto nbrs = g_->neighbors(u);
        return nbrs[nbrs.size() - 1];
      }
    }
    return 0;
  }
  [[nodiscard]] SpaceReport space() const override {
    SpaceReport r;
    r.function_bits.assign(g_->node_count(), 0);
    return r;
  }

 private:
  const Graph* g_;
  Mode mode_;
};

TEST(Verifier, DetectsInvalidHops) {
  const Graph g = graph::chain(6);
  const MisbehavingScheme scheme(g, MisbehavingScheme::Mode::kNonNeighborHop);
  const auto result = verify_scheme(g, scheme);
  EXPECT_FALSE(result.ok());
  EXPECT_GT(result.invalid_hops, 0u);
}

TEST(Verifier, DetectsNonTermination) {
  const Graph g = graph::chain(6);
  const MisbehavingScheme scheme(g, MisbehavingScheme::Mode::kLoopForever);
  const auto result = verify_scheme(g, scheme);
  EXPECT_FALSE(result.all_delivered);
  EXPECT_GT(result.pairs_failed, 0u);
  EXPECT_EQ(result.invalid_hops, 0u);  // hops are valid edges, just circular
}

TEST(Verifier, MeasuresStretchOfDetours) {
  graph::Rng rng(3);
  const Graph g = graph::random_uniform(32, rng);
  const MisbehavingScheme scheme(g, MisbehavingScheme::Mode::kDetour);
  const auto result = verify_scheme(g, scheme);
  if (result.all_delivered) {
    EXPECT_GE(result.max_stretch, 1.0);
  }
  // Either way the correct baseline is strictly better.
  const auto baseline =
      verify_scheme(g, schemes::FullTableScheme::standard(g));
  EXPECT_TRUE(baseline.ok());
  EXPECT_DOUBLE_EQ(baseline.max_stretch, 1.0);
}

TEST(Verifier, CountsPairsAndEdges) {
  const Graph g = graph::complete(5);
  const auto result =
      verify_scheme(g, schemes::FullTableScheme::standard(g));
  EXPECT_EQ(result.pairs_checked, 20u);  // 5·4 ordered pairs
  EXPECT_EQ(result.total_route_edges, 20u);  // all at distance 1
  EXPECT_EQ(result.max_route_edges, 1u);
  EXPECT_DOUBLE_EQ(result.mean_stretch, 1.0);
}

TEST(Verifier, SkipsDisconnectedPairs) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const auto result =
      verify_scheme(g, schemes::FullTableScheme::standard(g));
  EXPECT_TRUE(result.ok());  // only intra-component pairs verified
  EXPECT_EQ(result.pairs_checked, 12u);
}

TEST(Verifier, RouteOnceReturnsEdgeCount) {
  const Graph g = graph::chain(7);
  const auto scheme = schemes::FullTableScheme::standard(g);
  EXPECT_EQ(route_once(g, scheme, 0, 6, 0), 6u);
  EXPECT_EQ(route_once(g, scheme, 2, 3, 0), 1u);
}

TEST(Verifier, DefaultHopBudgetPinned) {
  // Regression pin for the "4n + 16" sentinel, now hoisted into one
  // helper shared by the verifier and the simulator.
  EXPECT_EQ(default_hop_budget(0), 16u);
  EXPECT_EQ(default_hop_budget(16), 80u);
  EXPECT_EQ(default_hop_budget(256), 1040u);
  // Passing the resolved budget explicitly must match the 0 sentinel.
  const Graph g = graph::chain(12);
  const auto scheme = schemes::FullTableScheme::standard(g);
  const auto implicit = verify_scheme(g, scheme, 0);
  const auto explicit_budget =
      verify_scheme(g, scheme, default_hop_budget(g.node_count()));
  EXPECT_EQ(implicit.pairs_failed, explicit_budget.pairs_failed);
  EXPECT_EQ(implicit.total_route_edges, explicit_budget.total_route_edges);
}

// --- Sampled verifier ------------------------------------------------------

TEST(SampledVerifier, AgreesWithExhaustiveOnCorrectSchemes) {
  graph::Rng rng(1010);
  const Graph g = core::certified_random_graph(96, rng);
  const schemes::CompactDiam2Scheme scheme(g, {});
  const auto sampled = verify_scheme_sampled(g, scheme, 2000, 7);
  EXPECT_TRUE(sampled.all_delivered);
  EXPECT_EQ(sampled.pairs_checked, 2000u);
  EXPECT_DOUBLE_EQ(sampled.max_stretch, 1.0);
}

TEST(SampledVerifier, ScalesToLargeN) {
  graph::Rng rng(1011);
  const Graph g = core::certified_random_graph(512, rng);
  const schemes::CompactDiam2Scheme scheme(g, {});
  const auto sampled = verify_scheme_sampled(g, scheme, 3000, 11);
  EXPECT_TRUE(sampled.all_delivered);
  EXPECT_DOUBLE_EQ(sampled.max_stretch, 1.0);
  // Theorem 1 bound holds at this scale too.
  EXPECT_LE(scheme.space().max_node_bits(), 6u * 512);
}

// --- Differential harness: sharded verify_scheme vs the serial reference -

void expect_identical_results(const VerificationResult& a,
                              const VerificationResult& b,
                              const std::string& context) {
  EXPECT_EQ(a.all_delivered, b.all_delivered) << context;
  EXPECT_EQ(a.pairs_checked, b.pairs_checked) << context;
  EXPECT_EQ(a.pairs_failed, b.pairs_failed) << context;
  EXPECT_EQ(a.invalid_hops, b.invalid_hops) << context;
  EXPECT_EQ(a.total_route_edges, b.total_route_edges) << context;
  EXPECT_EQ(a.max_route_edges, b.max_route_edges) << context;
  // Bit-level: max/mean stretch must agree including tie-breaking and
  // floating-point association, not just within a tolerance.
  EXPECT_EQ(std::memcmp(&a.max_stretch, &b.max_stretch, sizeof(double)), 0)
      << context << " max_stretch " << a.max_stretch << " vs " << b.max_stretch;
  EXPECT_EQ(std::memcmp(&a.mean_stretch, &b.mean_stretch, sizeof(double)), 0)
      << context << " mean_stretch " << a.mean_stretch << " vs "
      << b.mean_stretch;
}

using SchemeFactory =
    std::pair<std::string,
              std::function<std::unique_ptr<RoutingScheme>(const Graph&)>>;

// One factory per scheme in src/schemes; factories whose preconditions the
// graph fails (diameter > 2, no Lemma 3 cover, …) report inapplicable.
std::vector<SchemeFactory> all_scheme_factories() {
  std::vector<SchemeFactory> factories;
  factories.emplace_back("full_table", [](const Graph& g) {
    return std::make_unique<schemes::FullTableScheme>(
        schemes::FullTableScheme::standard(g));
  });
  factories.emplace_back("full_information", [](const Graph& g) {
    return std::make_unique<schemes::FullInformationScheme>(
        g, graph::PortAssignment::sorted(g));
  });
  factories.emplace_back("interval", [](const Graph& g) {
    return std::make_unique<schemes::IntervalRoutingScheme>(g);
  });
  factories.emplace_back("k_interval", [](const Graph& g) {
    return std::make_unique<schemes::KIntervalScheme>(g);
  });
  factories.emplace_back("hierarchical", [](const Graph& g) {
    return std::make_unique<schemes::HierarchicalScheme>(g);
  });
  factories.emplace_back("landmark", [](const Graph& g) {
    return std::make_unique<schemes::LandmarkScheme>(g);
  });
  factories.emplace_back("hub", [](const Graph& g) {
    return std::make_unique<schemes::HubScheme>(g);
  });
  factories.emplace_back("routing_center", [](const Graph& g) {
    return std::make_unique<schemes::RoutingCenterScheme>(g);
  });
  factories.emplace_back("sequential_search", [](const Graph& g) {
    return std::make_unique<schemes::SequentialSearchScheme>(g);
  });
  factories.emplace_back("neighbor_label", [](const Graph& g) {
    return std::make_unique<schemes::NeighborLabelScheme>(g);
  });
  // The compiler's Table 1 selections (compact_diam2 and friends), across
  // every model, with fallback enabled so each model yields some scheme.
  for (const Model& m : Model::all()) {
    factories.emplace_back("compile:" + m.name(), [m](const Graph& g) {
      return schemes::compile(g, m);
    });
  }
  return factories;
}

TEST(VerifierDifferential, ShardedMatchesSerialOnEveryScheme) {
  std::size_t schemes_checked = 0;
  // n = 130 routes three destination blocks of 64, the last one partial.
  for (std::size_t n : {8u, 16u, 32u, 130u}) {
    // A certified G(n, 1/2) draw where possible (so the compact paper
    // constructions apply) with a plain uniform fallback at small n.
    graph::Rng rng(n);
    Graph g = graph::random_uniform(n, rng);
    try {
      graph::Rng certified_rng(n);
      g = core::certified_random_graph(n, certified_rng);
    } catch (const std::runtime_error&) {
      // Small n may never certify; the uniform draw is fine for routing.
    }
    for (const auto& [name, make] : all_scheme_factories()) {
      std::unique_ptr<RoutingScheme> scheme;
      try {
        scheme = make(g);
      } catch (const schemes::SchemeInapplicable&) {
        continue;  // this graph lacks the scheme's preconditions
      }
      const std::string context = name + " on n=" + std::to_string(n);
      const auto serial = verify_scheme_serial(g, *scheme);
      for (std::size_t threads : {1u, 2u, 8u}) {
        expect_identical_results(
            verify_scheme(g, *scheme, 0, threads), serial,
            context + " threads=" + std::to_string(threads));
      }
      ++schemes_checked;
    }
  }
  // Every named scheme must have been exercised on at least one n.
  EXPECT_GE(schemes_checked, 3 * 10u);
}

TEST(VerifierDifferential, ShardedMatchesSerialOnMisbehavingSchemes) {
  // Failure counting (invalid hops, hop-budget exhaustion) must shard
  // identically too, not just the happy path.
  graph::Rng rng(11);
  const Graph g = graph::random_uniform(16, rng);
  for (const auto mode :
       {MisbehavingScheme::Mode::kNonNeighborHop,
        MisbehavingScheme::Mode::kLoopForever, MisbehavingScheme::Mode::kDetour}) {
    const MisbehavingScheme scheme(g, mode);
    const auto serial = verify_scheme_serial(g, scheme);
    for (std::size_t threads : {1u, 2u, 8u}) {
      expect_identical_results(verify_scheme(g, scheme, 0, threads), serial,
                               "misbehaving mode");
    }
  }
}

/// Routes on ring(n), n odd, by destination class: v ≡ 0 (mod 3) goes
/// clockwise and arrives in (v − u) mod n hops; v ≡ 1 steps along the
/// shorter arc and, two hops out, names v itself, an invalid hop d(u, v) − 2
/// edges in; v ≡ 2 steps along the shorter arc and, two hops out, steps
/// back out again, looping between distances 2 and 3. Classes 1 and 2
/// step onto v from one hop out.
class ScriptedRingScheme final : public RoutingScheme {
 public:
  explicit ScriptedRingScheme(std::size_t n) : n_(static_cast<NodeId>(n)) {}

  [[nodiscard]] std::string name() const override { return "scripted-ring"; }
  [[nodiscard]] Model routing_model() const override { return kIIalpha; }
  [[nodiscard]] std::size_t node_count() const override { return n_; }
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId v,
                                MessageHeader&) const override {
    const NodeId cw = (u + 1) % n_;
    const NodeId ccw = (u + n_ - 1) % n_;
    if (v % 3 == 0) return cw;
    const NodeId ahead = (v + n_ - u) % n_;  // clockwise distance
    const bool clockwise = ahead <= n_ / 2;
    const NodeId d = clockwise ? ahead : n_ - ahead;
    if (d == 1) return v;
    if (d == 2) {
      if (v % 3 == 1) return v;      // not a neighbour
      return clockwise ? ccw : cw;   // back out to distance 3
    }
    return clockwise ? cw : ccw;
  }
  [[nodiscard]] SpaceReport space() const override {
    SpaceReport r;
    r.function_bits.assign(n_, 0);
    return r;
  }

 private:
  NodeId n_;
};

TEST(VerifierDifferential, HopBudgetSweepMatchesSerial) {
  // Budgets 1..n: the longest route is n − 1 clockwise hops. Every budget
  // has routes that arrive in exactly that many hops, and up to 31 routes
  // whose invalid hop comes exactly that many edges in, where the walk
  // spends its budget first. n = 67 spans two destination blocks.
  constexpr std::size_t n = 67;
  const Graph g = graph::ring(n);
  const ScriptedRingScheme scheme(n);
  const double bound = 1.5;
  std::size_t saw_invalid = 0, saw_failed = 0;
  for (std::size_t budget = 1; budget <= n; ++budget) {
    const std::string context = "budget=" + std::to_string(budget);
    const auto serial = verify_scheme_serial(g, scheme, budget);
    saw_invalid += serial.invalid_hops;
    saw_failed += serial.pairs_failed - serial.invalid_hops;
    // Pairs over the bound, walked one at a time.
    std::size_t over = 0;
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        if (u == v) continue;
        const std::size_t edges = route_once(g, scheme, u, v, budget);
        const std::size_t d = std::min<std::size_t>((v + n - u) % n,
                                                    (u + n - v) % n);
        if (edges != 0 && static_cast<double>(edges) / d > bound) ++over;
      }
    }
    for (std::size_t threads : {1u, 2u, 8u}) {
      const std::string at = context + " threads=" + std::to_string(threads);
      expect_identical_results(verify_scheme(g, scheme, budget, threads),
                               serial, at);
      const auto stretch =
          verify_scheme_stretch(g, scheme, bound, budget, threads);
      expect_identical_results(stretch.base, serial, at + " (stretch)");
      EXPECT_EQ(stretch.pairs_over_stretch, over) << at;
    }
  }
  EXPECT_GT(saw_invalid, 0u);
  EXPECT_GT(saw_failed, 0u);
  // One past the longest route, only the scripted failures remain.
  const auto full = verify_scheme(g, scheme, n);
  EXPECT_EQ(full.max_route_edges, n - 1);
}

TEST(Verifier, HeaderBitsInFlightAccounting) {
  MessageHeader h;
  EXPECT_EQ(h.bits_in_flight(), 2u);
  h.probe_index = 5;
  EXPECT_EQ(h.bits_in_flight(), 5u);  // 2 + bit_width(5)=3
}

}  // namespace
}  // namespace optrt::model
