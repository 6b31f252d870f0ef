// Pinned route fingerprints: the exact hop sequence of every ordered pair,
// for every scheme kind, frozen as constants. A change to how a scheme
// stores, decodes or compiles its tables must leave every route untouched,
// so these values never drift. Serializable kinds must also keep their
// fingerprint through a serialize → deserialize round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "model/verifier.hpp"
#include "schemes/errors.hpp"
#include "schemes/interval.hpp"
#include "schemes/k_interval.hpp"
#include "schemes/serialization.hpp"

namespace optrt {
namespace {

using graph::Graph;

Graph certified(std::size_t n, std::uint64_t seed) {
  graph::Rng rng(seed);
  return core::certified_random_graph(n, rng);
}

/// Checks the pinned fingerprint and, when `artifact` is given, that the
/// deserialized scheme routes identically.
void expect_fingerprint(const Graph& g, const model::RoutingScheme& scheme,
                        std::uint64_t pinned,
                        const bitio::BitVector* artifact = nullptr) {
  EXPECT_EQ(model::route_fingerprint(g, scheme, 0, 1), pinned)
      << scheme.name();
  if (artifact != nullptr) {
    const auto loaded = schemes::deserialize_any(*artifact, g);
    EXPECT_EQ(model::route_fingerprint(g, *loaded, 0, 1), pinned)
        << scheme.name() << " after a round trip";
  }
}

template <typename Scheme>
void expect_serializable(const Graph& g, const Scheme& scheme,
                         std::uint64_t pinned) {
  const bitio::BitVector artifact = schemes::serialize(scheme);
  expect_fingerprint(g, scheme, pinned, &artifact);
}

TEST(RouteFingerprint, SerializableKindsOnCertifiedRandomGraph) {
  const Graph g = certified(96, 1996);
  expect_serializable(g, schemes::CompactDiam2Scheme(g, {}),
                      10138477736408593764ULL);
  expect_serializable(g, schemes::FullTableScheme::standard(g),
                      10138477736408593764ULL);
  expect_serializable(g, schemes::HubScheme(g), 16740516863799889286ULL);
  expect_serializable(g, schemes::RoutingCenterScheme(g),
                      1392650285556866767ULL);
  expect_serializable(g, schemes::LandmarkScheme(g), 8365588763423286271ULL);
  expect_serializable(g, schemes::HierarchicalScheme(g),
                      12570105633383686504ULL);
  expect_serializable(g, schemes::SequentialSearchScheme(g),
                      13105163877576426183ULL);
  expect_serializable(g, schemes::TzScheme(g), 4704154896380721623ULL);
  expect_fingerprint(g, schemes::IntervalRoutingScheme(g),
                     15551823339894206709ULL);
  expect_fingerprint(g, schemes::KIntervalScheme(g), 10138477736408593764ULL);
}

TEST(RouteFingerprint, GeneralKindsOnRing) {
  const Graph g = graph::ring(64);
  expect_serializable(g, schemes::FullTableScheme::standard(g),
                      14584280265936334642ULL);
  expect_serializable(g, schemes::LandmarkScheme(g), 14679768480390491676ULL);
  expect_serializable(g, schemes::HierarchicalScheme(g),
                      9581099656713049855ULL);
  expect_serializable(g, schemes::TzScheme(g), 10663923260747944620ULL);
  expect_fingerprint(g, schemes::IntervalRoutingScheme(g),
                     12667041419170828546ULL);
  expect_fingerprint(g, schemes::KIntervalScheme(g), 14584280265936334642ULL);
}

TEST(RouteFingerprint, GeneralKindsOnGrid) {
  const Graph g = graph::grid(8, 8);
  expect_serializable(g, schemes::FullTableScheme::standard(g),
                      9123378401205779662ULL);
  expect_serializable(g, schemes::LandmarkScheme(g), 16827262830816128900ULL);
  expect_serializable(g, schemes::HierarchicalScheme(g),
                      11424792598098734377ULL);
  expect_serializable(g, schemes::TzScheme(g), 1009608901325910758ULL);
  expect_fingerprint(g, schemes::IntervalRoutingScheme(g),
                     4331302206487237763ULL);
  expect_fingerprint(g, schemes::KIntervalScheme(g), 9123378401205779662ULL);
}

/// Forwards every call to `inner` but declares that next_hop reads the
/// header, which makes route_fingerprint walk each pair from its source
/// instead of tabulating first hops by destination.
class HeaderReadingView final : public model::RoutingScheme {
 public:
  explicit HeaderReadingView(const model::RoutingScheme& inner)
      : inner_(&inner) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] model::Model routing_model() const override {
    return inner_->routing_model();
  }
  [[nodiscard]] std::size_t node_count() const override {
    return inner_->node_count();
  }
  [[nodiscard]] graph::NodeId label_of(graph::NodeId node) const override {
    return inner_->label_of(node);
  }
  [[nodiscard]] graph::NodeId node_of_label(
      graph::NodeId label) const override {
    return inner_->node_of_label(label);
  }
  [[nodiscard]] graph::NodeId next_hop(
      graph::NodeId u, graph::NodeId dest_label,
      model::MessageHeader& header) const override {
    return inner_->next_hop(u, dest_label, header);
  }
  [[nodiscard]] bool reads_header() const override { return true; }
  [[nodiscard]] model::SpaceReport space() const override {
    return inner_->space();
  }

 private:
  const model::RoutingScheme* inner_;
};

/// One scheme of every kind whose preconditions `g` meets.
std::vector<std::unique_ptr<model::RoutingScheme>> applicable_kinds(
    const Graph& g) {
  std::vector<std::unique_ptr<model::RoutingScheme>> kinds;
  const auto add = [&](auto make) {
    try {
      kinds.push_back(make());
    } catch (const schemes::SchemeInapplicable&) {
      // this graph lacks the kind's preconditions
    }
  };
  add([&] {
    return std::make_unique<schemes::CompactDiam2Scheme>(
        g, schemes::CompactDiam2Scheme::Options{});
  });
  add([&] {
    return std::make_unique<schemes::FullTableScheme>(
        schemes::FullTableScheme::standard(g));
  });
  add([&] { return std::make_unique<schemes::HubScheme>(g); });
  add([&] { return std::make_unique<schemes::RoutingCenterScheme>(g); });
  add([&] { return std::make_unique<schemes::LandmarkScheme>(g); });
  add([&] { return std::make_unique<schemes::HierarchicalScheme>(g); });
  if (graph::DistanceMatrix(g).diameter() <= 2) {  // it probes one hop out
    add([&] { return std::make_unique<schemes::SequentialSearchScheme>(g); });
  }
  add([&] { return std::make_unique<schemes::TzScheme>(g); });
  add([&] { return std::make_unique<schemes::IntervalRoutingScheme>(g); });
  add([&] { return std::make_unique<schemes::KIntervalScheme>(g); });
  return kinds;
}

TEST(RouteFingerprint, ByDestinationMatchesThePerSourceWalk) {
  // n = 130: three destination blocks of 64, the last one partial.
  graph::Rng ba_rng(130);
  const std::pair<std::string, Graph> graphs[] = {
      {"certified G(130, 1/2)", certified(130, 1996)},
      {"ba:2(130)", graph::barabasi_albert(130, 2, ba_rng)},
  };
  std::size_t compared = 0;
  for (const auto& [graph_name, g] : graphs) {
    for (const auto& scheme : applicable_kinds(g)) {
      const HeaderReadingView walked(*scheme);
      const std::uint64_t reference = model::route_fingerprint(g, walked, 0, 1);
      for (std::size_t threads : {1u, 2u, 8u}) {
        EXPECT_EQ(model::route_fingerprint(g, *scheme, 0, threads), reference)
            << scheme->name() << " on " << graph_name << " threads="
            << threads;
        EXPECT_EQ(model::route_fingerprint(g, walked, 0, threads), reference)
            << scheme->name() << " walked on " << graph_name << " threads="
            << threads;
      }
      ++compared;
    }
  }
  EXPECT_EQ(compared, 10u + 6u);  // every kind on G(n, ½), six on ba:2
}

}  // namespace
}  // namespace optrt
