// Pinned route fingerprints: the exact hop sequence of every ordered pair,
// for every scheme kind, frozen as constants. A change to how a scheme
// stores, decodes or compiles its tables must leave every route untouched,
// so these values never drift. Serializable kinds must also keep their
// fingerprint through a serialize → deserialize round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "core/experiment.hpp"
#include "graph/generators.hpp"
#include "model/verifier.hpp"
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

}  // namespace
}  // namespace optrt
