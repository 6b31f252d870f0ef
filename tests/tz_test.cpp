// Differential oracle for the Thorup-Zwick stretch-3 scheme: full
// pair-space delivery on every topology family, stretch ≤ 3 for every
// pair via verify_scheme_stretch, cluster/bunch size bounds (the
// O(√(n log n)) sanity pin), fast-path parity against the interpreted
// decode path, and serialization round-trips with a byte-pinned golden
// fixture.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/parallel.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "model/fastpath.hpp"
#include "model/verifier.hpp"
#include "schemes/errors.hpp"
#include "schemes/serialization.hpp"
#include "schemes/tz.hpp"

namespace optrt::schemes {
namespace {

using graph::Graph;
using graph::NodeId;
using graph::Rng;
using graph::TopologyFamily;

Graph family_graph(int which) {
  switch (which) {
    case 0: {  // the paper's dense regime
      Rng rng(7);
      return core::certified_random_graph(64, rng);
    }
    case 1:  // Internet-like
      return TopologyFamily::power_law(2).make(96, 5);
    case 2:
      return TopologyFamily::grid().make(48, 0);
    case 3:
      return TopologyFamily::ring().make(41, 0);
    default:
      return TopologyFamily::config_model(2.1, 2).make(80, 5);
  }
}

class TzFamilies : public ::testing::TestWithParam<int> {};

TEST_P(TzFamilies, DeliversEveryPairWithStretchAtMost3) {
  const Graph g = family_graph(GetParam());
  const TzScheme scheme(g);
  const auto result = model::verify_scheme_stretch(g, scheme, 3.0);
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.base.all_delivered);
  EXPECT_EQ(result.base.invalid_hops, 0u);
  EXPECT_EQ(result.pairs_over_stretch, 0u);
  EXPECT_LE(result.base.max_stretch, 3.0);
  EXPECT_GE(result.base.mean_stretch, 1.0);
  EXPECT_DOUBLE_EQ(result.stretch_bound, 3.0);
}

TEST_P(TzFamilies, StretchVerifierAgreesWithExactVerifier) {
  const Graph g = family_graph(GetParam());
  const TzScheme scheme(g);
  const auto exact = model::verify_scheme(g, scheme);
  const auto stretch = model::verify_scheme_stretch(g, scheme, 3.0);
  EXPECT_EQ(exact.pairs_checked, stretch.base.pairs_checked);
  EXPECT_EQ(exact.pairs_failed, stretch.base.pairs_failed);
  EXPECT_EQ(exact.total_route_edges, stretch.base.total_route_edges);
  EXPECT_DOUBLE_EQ(exact.max_stretch, stretch.base.max_stretch);
  EXPECT_DOUBLE_EQ(exact.mean_stretch, stretch.base.mean_stretch);
}

INSTANTIATE_TEST_SUITE_P(Families, TzFamilies,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(Tz, StretchVerifierCountsPairsOverATightBound) {
  // Against an impossible bound (< 1) every delivered pair is "over", so
  // the counting path itself is exercised, not just the zero case.
  const Graph g = TopologyFamily::ring().make(12, 0);
  const TzScheme scheme(g);
  const auto result = model::verify_scheme_stretch(g, scheme, 0.5);
  EXPECT_TRUE(result.base.all_delivered);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.pairs_over_stretch, result.base.pairs_checked);
}

TEST(Tz, ClusterSemanticsAreStrict) {
  // C(w) = { v : d(w, v) < d(v, A) } with *strict* inequality — the
  // distinction from LandmarkScheme's non-strict vicinities. Check the
  // stored tables against the distance oracle, pairwise.
  const Graph g = TopologyFamily::power_law(2).make(60, 3);
  const TzScheme scheme(g);
  const graph::DistanceMatrix dist(g);
  for (NodeId w = 0; w < g.node_count(); ++w) {
    std::size_t members = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (v == w) continue;
      const bool in_cluster =
          dist.at(w, v) < dist.at(v, scheme.landmark_of(v));
      members += in_cluster ? 1 : 0;
    }
    EXPECT_EQ(scheme.cluster_size(w), members);
  }
  // Strictness corollary: a landmark's cluster is empty (d(l, v) < d(v, A)
  // ≤ d(v, l) is unsatisfiable).
  for (NodeId l : scheme.landmarks()) {
    EXPECT_EQ(scheme.cluster_size(l), 0u);
  }
}

TEST(Tz, NearestLandmarkIsNearestWithLeastIdTie) {
  const Graph g = TopologyFamily::grid().make(36, 0);
  const TzScheme scheme(g);
  const graph::DistanceMatrix dist(g);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const NodeId l = scheme.landmark_of(v);
    for (NodeId other : scheme.landmarks()) {
      EXPECT_LE(dist.at(v, l), dist.at(v, other));
      if (dist.at(v, other) == dist.at(v, l)) {
        EXPECT_LE(l, other);
      }
    }
  }
}

TEST(Tz, ClusterAndBunchSizesObeyTheSqrtNLogNPin) {
  // The resample loop enforces max cluster ≤ 4√(n ln n); the sampled
  // landmark set and the bunches must sit in the same regime for the
  // scheme to be "compact". Seeds are fixed, so these are deterministic
  // pins, not statistical hopes.
  for (const int which : {1, 2, 3}) {
    const Graph g = family_graph(which);
    const std::size_t n = g.node_count();
    const TzScheme scheme(g);
    const auto cap = static_cast<double>(TzScheme::cluster_cap(n));
    EXPECT_LE(static_cast<double>(scheme.landmarks().size()), cap);
    for (NodeId w = 0; w < n; ++w) {
      EXPECT_LE(static_cast<double>(scheme.cluster_size(w)), cap);
      // Bunch = the landmark set plus the clusters that contain w.
      EXPECT_GE(scheme.bunch_size(w), scheme.landmarks().size());
      EXPECT_LE(static_cast<double>(scheme.bunch_size(w)),
                static_cast<double>(scheme.landmarks().size()) + cap);
    }
  }
}

TEST(Tz, BunchSizesAreTheClusterTranspose) {
  const Graph g = TopologyFamily::ring().make(30, 0);
  const TzScheme scheme(g);
  const graph::DistanceMatrix dist(g);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    std::size_t expected = scheme.landmarks().size();
    for (NodeId w = 0; w < g.node_count(); ++w) {
      if (w != v && dist.at(w, v) < dist.at(v, scheme.landmark_of(v))) {
        ++expected;
      }
    }
    EXPECT_EQ(scheme.bunch_size(v), expected);
  }
}

TEST(Tz, SchemeSurfaceBasics) {
  const Graph g = TopologyFamily::power_law(2).make(40, 2);
  const TzScheme scheme(g);
  EXPECT_EQ(scheme.name(), "tz");
  EXPECT_EQ(scheme.routing_model().relabeling, model::kIIgamma.relabeling);
  // γ labels are charged: (v, l(v), exit port) per node.
  const auto space = scheme.space();
  EXPECT_GT(space.label_bits, 0u);
  EXPECT_EQ(space.function_bits.size(), g.node_count());
  // port_enumeration exposes the scheme's own (sorted) port order so
  // deflection policies can walk it.
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto ports = scheme.port_enumeration(u);
    const auto nbrs = g.neighbors(u);
    ASSERT_EQ(ports.size(), nbrs.size());
    for (std::size_t i = 0; i < ports.size(); ++i) {
      EXPECT_EQ(ports[i], nbrs[i]);
    }
  }
  model::MessageHeader header;
  EXPECT_THROW((void)scheme.next_hop(0, 0, header), std::invalid_argument);
}

TEST(Tz, RejectsDisconnectedGraphs) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_THROW(TzScheme scheme(g), SchemeInapplicable);
}

// --- Fast-path parity --------------------------------------------------------

TEST(Tz, FastPathMatchesInterpretedPathOnTheFullPairSpace) {
  for (const int which : {0, 1, 2, 3}) {
    const Graph g = family_graph(which);
    const TzScheme scheme(g);
    const auto fast = scheme.compile_fast();
    ASSERT_NE(fast, nullptr);
    EXPECT_EQ(fast->name(), "tz");
    for (NodeId u = 0; u < g.node_count(); ++u) {
      for (NodeId v = 0; v < g.node_count(); ++v) {
        if (u == v) {
          EXPECT_THROW((void)fast->next_hop(u, v), std::invalid_argument);
          continue;
        }
        model::MessageHeader header;
        EXPECT_EQ(fast->next_hop(u, v), scheme.next_hop(u, v, header))
            << "family " << which << " pair " << u << "->" << v;
      }
    }
  }
}

TEST(Tz, FastPathBatchIsBitIdenticalAtAnyThreadCount) {
  const Graph g = TopologyFamily::power_law(2).make(72, 9);
  const std::size_t n = g.node_count();
  const TzScheme scheme(g);
  const auto fast = scheme.compile_fast();
  // FNV-1a over each source row of first hops, computed through
  // parallel_map at 1, 2 and 8 threads: the batch surface must be a pure
  // function of the pairs.
  auto fingerprints = [&](std::size_t threads) {
    return core::parallel_map<std::uint64_t>(
        threads, n, [&](std::size_t u) {
          std::vector<model::RoutePair> pairs;
          for (NodeId v = 0; v < n; ++v) {
            if (v != static_cast<NodeId>(u)) {
              pairs.push_back({static_cast<NodeId>(u), v});
            }
          }
          std::vector<NodeId> hops(pairs.size());
          fast->route_batch(pairs, hops);
          std::uint64_t h = 1469598103934665603ULL;
          for (NodeId hop : hops) {
            h ^= hop;
            h *= 1099511628211ULL;
          }
          return h;
        });
  };
  const auto one = fingerprints(1);
  EXPECT_EQ(one, fingerprints(2));
  EXPECT_EQ(one, fingerprints(8));
}

// --- Serialization -----------------------------------------------------------

void expect_same_routing(const Graph& g, const TzScheme& a, const TzScheme& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    EXPECT_TRUE(a.function_bits(u) == b.function_bits(u));
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (u == v) continue;
      model::MessageHeader ha, hb;
      EXPECT_EQ(a.next_hop(u, v, ha), b.next_hop(u, v, hb));
    }
  }
}

TEST(Tz, SerializationRoundTripsOnEveryFamily) {
  for (const int which : {0, 1, 2, 3, 4}) {
    const Graph g = family_graph(which);
    const TzScheme scheme(g);
    const auto artifact = serialize(scheme);
    EXPECT_EQ(peek_kind(artifact), SchemeKind::kThorupZwick);
    EXPECT_EQ(inspect(artifact).node_count, g.node_count());
    const TzScheme loaded = deserialize_tz(artifact, g);
    expect_same_routing(g, scheme, loaded);
    EXPECT_EQ(serialize(loaded), artifact) << "re-serialization drifted";
    // The kind-dispatching decoder agrees.
    const auto any = deserialize_any(artifact, g);
    ASSERT_NE(any, nullptr);
    EXPECT_EQ(any->name(), "tz");
  }
}

TEST(Tz, DeserializationRejectsCorruptTables) {
  const Graph g = TopologyFamily::grid().make(16, 0);
  const TzScheme scheme(g);
  const auto artifact = serialize(scheme);

  // Kind confusion: a TZ artifact refuses to decode as a landmark scheme.
  EXPECT_THROW((void)deserialize_landmark(artifact, g), DecodeError);
  // Graph mismatch: wrong n is a typed semantic rejection.
  const Graph other = TopologyFamily::grid().make(12, 0);
  try {
    (void)deserialize_tz(artifact, other);
    FAIL() << "decoded against the wrong graph";
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeErrorKind::kSemanticInvalid);
  }
  // Truncation inside the payload is typed, never a crash.
  bitio::BitVector cut;
  for (std::size_t i = 0; i + 16 < artifact.size(); ++i) {
    cut.push_back(artifact.get(i));
  }
  EXPECT_THROW((void)deserialize_tz(cut, g), DecodeError);
}

TEST(Tz, ConstructorValidatesSerializedState) {
  const Graph g = TopologyFamily::ring().make(8, 0);
  const TzScheme scheme(g);
  std::vector<bitio::BitVector> bits;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    bits.push_back(scheme.function_bits(u));
  }
  // Unsorted landmark set.
  if (scheme.landmarks().size() >= 2) {
    std::vector<NodeId> reversed(scheme.landmarks().rbegin(),
                                 scheme.landmarks().rend());
    EXPECT_THROW(TzScheme(g, reversed, bits), std::invalid_argument);
  }
  // Landmark id out of range.
  EXPECT_THROW(TzScheme(g, {static_cast<NodeId>(g.node_count())}, bits),
               std::invalid_argument);
  // Wrong node-bits arity.
  std::vector<bitio::BitVector> short_bits(bits.begin(), bits.end() - 1);
  EXPECT_THROW(TzScheme(g, scheme.landmarks(), short_bits),
               std::invalid_argument);
}

// Byte-pinned golden fixture: serializing today's TZ scheme over grid(3,3)
// must reproduce these exact transport bytes, and the bytes must keep
// decoding to a scheme that routes. Any change is a wire-format break.
TEST(Tz, GoldenV1ArtifactIsPinnedByteForByte) {
  const Graph g = TopologyFamily::grid().make(9, 0);
  const TzScheme scheme(g);
  const auto artifact = serialize(scheme);
  static const char kGoldenHex[] =
      "7b010000000000004f525432010809000000cb00000000000000e992ccca0d62e886088c030a4300c681827188611c2a1882300e000c4100";
  std::string hex;
  static const char digits[] = "0123456789abcdef";
  for (std::uint8_t b : to_bytes(artifact)) {
    hex.push_back(digits[b >> 4]);
    hex.push_back(digits[b & 15]);
  }
  EXPECT_EQ(hex, kGoldenHex);
  const TzScheme loaded = deserialize_tz(artifact, g);
  EXPECT_TRUE(model::verify_scheme_stretch(g, loaded, 3.0).ok());
}

}  // namespace
}  // namespace optrt::schemes
