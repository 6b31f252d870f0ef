// Scheme-artifact tests: save/load round trips preserve routing behaviour
// and space accounting, byte/file transport, and malformed-input rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "bitio/crc32.hpp"
#include "core/experiment.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "model/verifier.hpp"
#include "schemes/serialization.hpp"

namespace optrt::schemes {
namespace {

using graph::Graph;
using graph::Rng;

Graph certified(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return core::certified_random_graph(n, rng);
}

void expect_same_routing(const Graph& g, const model::RoutingScheme& a,
                         const model::RoutingScheme& b) {
  for (graph::NodeId u = 0; u < g.node_count(); ++u) {
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      if (u == v) continue;
      model::MessageHeader ha, hb;
      EXPECT_EQ(a.next_hop(u, a.label_of(v), ha),
                b.next_hop(u, b.label_of(v), hb));
    }
  }
}

TEST(Serialization, CompactDiam2RoundTrip) {
  const Graph g = certified(64, 701);
  const CompactDiam2Scheme original(g, {});
  const bitio::BitVector artifact = serialize(original);
  EXPECT_EQ(peek_kind(artifact), SchemeKind::kCompactDiam2);
  const CompactDiam2Scheme loaded = deserialize_compact_diam2(artifact, g);
  EXPECT_EQ(loaded.space().total_bits(), original.space().total_bits());
  expect_same_routing(g, original, loaded);
  EXPECT_TRUE(model::verify_scheme(g, loaded).ok());
}

TEST(Serialization, CompactDiam2RoundTripModelIB) {
  const Graph g = certified(48, 702);
  CompactDiam2Scheme::Options opt;
  opt.neighbors_known = false;
  const CompactDiam2Scheme original(g, opt);
  const CompactDiam2Scheme loaded =
      deserialize_compact_diam2(serialize(original), g);
  expect_same_routing(g, original, loaded);
}

TEST(Serialization, FullTableRoundTripWithAdversarialEnvironment) {
  const Graph g = certified(48, 703);
  Rng prng(704);
  std::vector<graph::NodeId> perm(48);
  for (graph::NodeId i = 0; i < 48; ++i) perm[i] = (i * 5 + 2) % 48;
  const FullTableScheme original(g, graph::PortAssignment::random(g, prng),
                                 graph::Labeling::permutation(perm),
                                 model::kIAbeta);
  const bitio::BitVector artifact = serialize(original);
  EXPECT_EQ(peek_kind(artifact), SchemeKind::kFullTable);
  const FullTableScheme loaded = deserialize_full_table(artifact, g);
  EXPECT_EQ(loaded.routing_model(), model::kIAbeta);
  EXPECT_EQ(loaded.space().total_bits(), original.space().total_bits());
  expect_same_routing(g, original, loaded);
  EXPECT_TRUE(model::verify_scheme(g, loaded).ok());
}

TEST(Serialization, HubRoundTrip) {
  const Graph g = certified(64, 709);
  const HubScheme original(g);
  const bitio::BitVector artifact = serialize(original);
  EXPECT_EQ(peek_kind(artifact), SchemeKind::kHub);
  const HubScheme loaded = deserialize_hub(artifact, g);
  EXPECT_EQ(loaded.hub(), original.hub());
  EXPECT_EQ(loaded.rank_width(), original.rank_width());
  EXPECT_EQ(loaded.space().total_bits(), original.space().total_bits());
  expect_same_routing(g, original, loaded);
  const auto result = model::verify_scheme(g, loaded);
  EXPECT_TRUE(result.ok());
  EXPECT_LE(result.max_stretch, 2.0);
}

TEST(Serialization, RoutingCenterRoundTrip) {
  const Graph g = certified(64, 710);
  const RoutingCenterScheme original(g);
  const bitio::BitVector artifact = serialize(original);
  EXPECT_EQ(peek_kind(artifact), SchemeKind::kRoutingCenter);
  const RoutingCenterScheme loaded = deserialize_routing_center(artifact, g);
  EXPECT_EQ(loaded.centers(), original.centers());
  expect_same_routing(g, original, loaded);
  const auto result = model::verify_scheme(g, loaded);
  EXPECT_TRUE(result.ok());
  EXPECT_LE(result.max_stretch, 1.5);
}

TEST(Serialization, LandmarkRoundTrip) {
  const Graph g = certified(64, 712);
  const LandmarkScheme original(g);
  const bitio::BitVector artifact = serialize(original);
  EXPECT_EQ(peek_kind(artifact), SchemeKind::kLandmark);
  const LandmarkScheme loaded = deserialize_landmark(artifact, g);
  EXPECT_EQ(loaded.landmarks(), original.landmarks());
  for (graph::NodeId v = 0; v < 64; ++v) {
    EXPECT_EQ(loaded.landmark_of(v), original.landmark_of(v));
  }
  expect_same_routing(g, original, loaded);
  const auto result = model::verify_scheme(g, loaded);
  EXPECT_TRUE(result.ok());
  EXPECT_LE(result.max_stretch, 3.0);
}

TEST(Serialization, LandmarkRoundTripOnSparseGraph) {
  // Grids, rings and power-law graphs put many nodes at equal distance
  // from two landmarks: the decoder must break every tie as the build did.
  const std::vector<Graph> graphs = {
      graph::grid(6, 8), graph::ring(40),
      graph::TopologyFamily::parse("ba:2").make(96, 1205)};
  for (const Graph& g : graphs) {
    const LandmarkScheme original(g);
    const LandmarkScheme loaded = deserialize_landmark(serialize(original), g);
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(loaded.landmark_of(v), original.landmark_of(v)) << "node " << v;
    }
    expect_same_routing(g, original, loaded);
  }
}

TEST(Serialization, HierarchicalRoundTrip) {
  const Graph g = graph::grid(8, 8);
  HierarchicalOptions opt;
  opt.levels = 3;
  const HierarchicalScheme original(g, opt);
  const bitio::BitVector artifact = serialize(original);
  EXPECT_EQ(peek_kind(artifact), SchemeKind::kHierarchical);
  const HierarchicalScheme loaded = deserialize_hierarchical(artifact, g);
  EXPECT_EQ(loaded.levels(), original.levels());
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(loaded.pivots(i), original.pivots(i));
    for (graph::NodeId v = 0; v < 64; ++v) {
      EXPECT_EQ(loaded.pivot_of(i, v), original.pivot_of(i, v));
    }
  }
  EXPECT_TRUE(model::verify_scheme(g, loaded).ok());
  // Hierarchical routing is stateful (header waypoints), so compare
  // end-to-end routes rather than per-call hops.
  for (graph::NodeId u = 0; u < 64; u += 7) {
    for (graph::NodeId v = 0; v < 64; ++v) {
      if (u == v) continue;
      EXPECT_EQ(model::route_once(g, original, u, v, 0),
                model::route_once(g, loaded, u, v, 0));
    }
  }
}

TEST(Serialization, StretchLadderArtifactsAreDistinguishable) {
  const Graph g = certified(48, 711);
  EXPECT_EQ(peek_kind(serialize(CompactDiam2Scheme(g, {}))),
            SchemeKind::kCompactDiam2);
  EXPECT_EQ(peek_kind(serialize(RoutingCenterScheme(g))),
            SchemeKind::kRoutingCenter);
  EXPECT_EQ(peek_kind(serialize(HubScheme(g))), SchemeKind::kHub);
  // And cross-deserialization is rejected.
  EXPECT_THROW((void)deserialize_hub(serialize(RoutingCenterScheme(g)), g),
               std::invalid_argument);
  EXPECT_THROW(
      (void)deserialize_routing_center(serialize(HubScheme(g)), g),
      std::invalid_argument);
}

TEST(Serialization, KindMismatchRejected) {
  const Graph g = certified(32, 705);
  const auto compact_artifact = serialize(CompactDiam2Scheme(g, {}));
  EXPECT_THROW((void)deserialize_full_table(compact_artifact, g),
               std::invalid_argument);
  const auto table_artifact = serialize(FullTableScheme::standard(g));
  EXPECT_THROW((void)deserialize_compact_diam2(table_artifact, g),
               std::invalid_argument);
}

TEST(Serialization, WrongGraphRejected) {
  const Graph g = certified(32, 706);
  const Graph other = certified(48, 707);
  const auto artifact = serialize(CompactDiam2Scheme(g, {}));
  EXPECT_THROW((void)deserialize_compact_diam2(artifact, other),
               std::invalid_argument);
}

TEST(Serialization, BadMagicRejected) {
  bitio::BitVector junk(128);
  EXPECT_THROW((void)peek_kind(junk), std::invalid_argument);
}

TEST(Serialization, BytesRoundTrip) {
  for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 1000u}) {
    Rng rng(len + 1);
    bitio::BitVector bits;
    for (std::size_t i = 0; i < len; ++i) bits.push_back(rng() & 1u);
    EXPECT_EQ(from_bytes(to_bytes(bits)), bits) << "len=" << len;
  }
}

TEST(Serialization, BytesRejectTruncation) {
  bitio::BitVector bits(100);
  auto bytes = to_bytes(bits);
  bytes.pop_back();
  EXPECT_THROW((void)from_bytes(bytes), std::invalid_argument);
  EXPECT_THROW((void)from_bytes({1, 2, 3}), std::invalid_argument);
}

TEST(Serialization, FileRoundTrip) {
  const Graph g = certified(32, 708);
  const auto artifact = serialize(CompactDiam2Scheme(g, {}));
  const std::string path = "/tmp/optrt_serialization_test.ort";
  save_artifact(path, artifact);
  EXPECT_EQ(load_artifact(path), artifact);
  std::remove(path.c_str());
}

TEST(Serialization, MissingFileThrows) {
  EXPECT_THROW((void)load_artifact("/nonexistent/definitely/missing.ort"),
               std::runtime_error);
}

TEST(Serialization, SequentialSearchRoundTrip) {
  const Graph g = graph::grid(3, 3);
  const SequentialSearchScheme original(g);
  const bitio::BitVector artifact = serialize(original);
  EXPECT_EQ(peek_kind(artifact), SchemeKind::kSequentialSearch);
  EXPECT_EQ(artifact.size(), kFrameHeaderBits);  // empty payload
  const SequentialSearchScheme loaded =
      deserialize_sequential_search(artifact, g);
  EXPECT_EQ(loaded.space().total_bits(), 0u);
  expect_same_routing(g, original, loaded);
  // The frame still pins n: a different graph is rejected.
  EXPECT_THROW((void)deserialize_sequential_search(artifact, graph::grid(4, 4)),
               DecodeError);
}

TEST(Serialization, FrameOverheadIsConstant) {
  for (std::size_t n : {16u, 24u, 32u}) {
    const Graph g = certified(n, 700 + n);
    const auto artifact = serialize(HubScheme(g));
    const ArtifactInfo info = inspect(artifact);
    EXPECT_EQ(info.version, kFormatVersion);
    EXPECT_EQ(info.kind, SchemeKind::kHub);
    EXPECT_EQ(info.node_count, n);
    EXPECT_EQ(artifact.size(), kFrameHeaderBits + info.payload_bits);
    EXPECT_EQ(info.crc_stored, info.crc_computed);
  }
}

/// Flips bit `i` of a copy of `bits`.
bitio::BitVector with_flip(bitio::BitVector bits, std::size_t i) {
  bits.set(i, !bits.get(i));
  return bits;
}

DecodeErrorKind decode_kind_of(const bitio::BitVector& artifact,
                               const Graph& g) {
  try {
    (void)deserialize_any(artifact, g);
  } catch (const DecodeError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "artifact decoded successfully";
  return DecodeErrorKind::kTruncated;
}

TEST(Serialization, ErrorTaxonomy) {
  const Graph g = certified(16, 901);
  const auto artifact = serialize(HubScheme(g));

  // Truncated: cut mid-header and mid-payload.
  bitio::BitVector cut;
  for (std::size_t i = 0; i < 40; ++i) cut.push_back(artifact.get(i));
  EXPECT_EQ(decode_kind_of(cut, g), DecodeErrorKind::kTruncated);
  EXPECT_EQ(decode_kind_of(bitio::BitVector(8), g),
            DecodeErrorKind::kTruncated);

  // Bad magic: zero the whole magic field.
  bitio::BitVector zeroed = artifact;
  for (std::size_t i = 0; i < 32; ++i) zeroed.set(i, false);
  EXPECT_EQ(decode_kind_of(zeroed, g), DecodeErrorKind::kBadMagic);

  // Version mismatch: version 1 -> 3 (flip bit 1 of the version byte).
  EXPECT_EQ(decode_kind_of(with_flip(artifact, 33), g),
            DecodeErrorKind::kVersionMismatch);

  // Checksum mismatch: flip a payload bit.
  EXPECT_EQ(decode_kind_of(with_flip(artifact, kFrameHeaderBits), g),
            DecodeErrorKind::kChecksumMismatch);

  // Semantic: intact artifact, wrong graph.
  EXPECT_EQ(decode_kind_of(artifact, certified(24, 902)),
            DecodeErrorKind::kSemanticInvalid);

  // Trailing bits after the declared payload.
  bitio::BitVector extended = artifact;
  extended.push_back(true);
  EXPECT_EQ(decode_kind_of(extended, g), DecodeErrorKind::kSemanticInvalid);

  // DecodeError still is-a std::invalid_argument for legacy callers.
  EXPECT_THROW((void)deserialize_any(zeroed, g), std::invalid_argument);
}

// --- Hand-framed artifacts: valid containers around bad payloads ----------

/// Frames `payload` as a v1 artifact with a correct CRC, so only the
/// per-kind payload checks stand between it and a loaded scheme.
bitio::BitVector frame_artifact(SchemeKind kind, std::size_t n,
                                const bitio::BitVector& payload) {
  bitio::BitWriter w;
  w.write_bits(kFrameMagic, 32);
  w.write_bits(kFormatVersion, 8);
  w.write_bits(static_cast<std::uint64_t>(kind), 8);
  w.write_bits(n, 32);
  w.write_bits(payload.size(), 64);
  w.write_bits(bitio::crc32(payload), 32);
  w.write_vector(payload);
  return w.take();
}

template <typename Scheme>
std::vector<bitio::BitVector> node_bits_of(const Scheme& scheme) {
  std::vector<bitio::BitVector> bits;
  for (graph::NodeId u = 0; u < scheme.node_count(); ++u) {
    bits.push_back(scheme.function_bits(u));
  }
  return bits;
}

void write_node_bits(bitio::BitWriter& w,
                     const std::vector<bitio::BitVector>& bits) {
  for (const auto& b : bits) {
    bitio::write_prime(w, b.size());
    w.write_vector(b);
  }
}

bitio::BitVector routing_center_artifact(
    const Graph& g, const std::vector<graph::NodeId>& centers,
    const std::vector<bitio::BitVector>& bits) {
  const unsigned id_width = bitio::ceil_log2(g.node_count());
  bitio::BitWriter w;
  bitio::write_prime(w, centers.size());
  for (graph::NodeId b : centers) w.write_bits(b, id_width);
  write_node_bits(w, bits);
  return frame_artifact(SchemeKind::kRoutingCenter, g.node_count(), w.take());
}

bitio::BitVector hub_artifact(const Graph& g, const HubScheme& scheme,
                              const std::vector<bitio::BitVector>& bits) {
  bitio::BitWriter w;
  bitio::write_prime(w, scheme.hub());
  bitio::write_prime(w, scheme.rank_width());
  write_node_bits(w, bits);
  return frame_artifact(SchemeKind::kHub, g.node_count(), w.take());
}

bitio::BitVector with_trailing_bit(bitio::BitVector bits) {
  bits.push_back(false);
  return bits;
}

TEST(Serialization, RoutingCenterRejectsUnsortedCenters) {
  // The compiled form finds a center's table by its rank in the center
  // list, so a list out of order would route through the wrong tables.
  const Graph g = certified(96, 1996);
  const RoutingCenterScheme original(g);
  ASSERT_GT(original.centers().size(), 1u);
  const std::vector<graph::NodeId> descending(original.centers().rbegin(),
                                              original.centers().rend());
  EXPECT_EQ(decode_kind_of(routing_center_artifact(g, descending,
                                                   node_bits_of(original)),
                           g),
            DecodeErrorKind::kSemanticInvalid);
  EXPECT_THROW(RoutingCenterScheme(g, descending, node_bits_of(original)),
               std::invalid_argument);
}

TEST(Serialization, RoutingCenterRejectsNonAdjacentStoredCenter) {
  const Graph g = certified(96, 1996);
  const RoutingCenterScheme original(g);
  const auto& centers = original.centers();
  // Node 2 is no center and not adjacent to center 0 (the hub).
  ASSERT_TRUE(std::binary_search(centers.begin(), centers.end(), 0u));
  ASSERT_FALSE(std::binary_search(centers.begin(), centers.end(), 2u));
  ASSERT_FALSE(g.has_edge(2, 0));
  auto bits = node_bits_of(original);
  bitio::BitWriter w;
  w.write_bits(0, bitio::ceil_log2(g.node_count()));
  bits[2] = w.take();
  EXPECT_EQ(decode_kind_of(routing_center_artifact(g, centers, bits), g),
            DecodeErrorKind::kSemanticInvalid);
}

TEST(Serialization, CompactDiam2RejectsTrailingNodeBits) {
  const Graph g = certified(64, 701);
  const CompactDiam2Scheme original(g, {});
  auto bits = node_bits_of(original);
  bits[5] = with_trailing_bit(with_trailing_bit(bits[5]));
  bitio::BitWriter w;
  w.write_bit(true);  // model II
  write_node_bits(w, bits);
  EXPECT_EQ(decode_kind_of(frame_artifact(SchemeKind::kCompactDiam2, 64,
                                          w.take()),
                           g),
            DecodeErrorKind::kSemanticInvalid);
}

TEST(Serialization, RoutingCenterRejectsTrailingNodeBits) {
  const Graph g = certified(64, 710);
  const RoutingCenterScheme original(g);
  const auto& centers = original.centers();
  graph::NodeId plain = 0;
  while (std::binary_search(centers.begin(), centers.end(), plain)) ++plain;
  for (const graph::NodeId u : {centers.front(), plain}) {
    auto bits = node_bits_of(original);
    bits[u] = with_trailing_bit(bits[u]);
    EXPECT_EQ(decode_kind_of(routing_center_artifact(g, centers, bits), g),
              DecodeErrorKind::kSemanticInvalid)
        << "node " << u;
  }
}

TEST(Serialization, HubRejectsTrailingNodeBits) {
  const Graph g = certified(64, 709);
  const HubScheme original(g);
  const graph::NodeId neighbour = g.neighbors(original.hub()).front();
  graph::NodeId far = 0;
  while (far == original.hub() || g.has_edge(far, original.hub())) ++far;
  for (const graph::NodeId u : {original.hub(), neighbour, far}) {
    auto bits = node_bits_of(original);
    bits[u] = with_trailing_bit(bits[u]);
    EXPECT_EQ(decode_kind_of(hub_artifact(g, original, bits), g),
              DecodeErrorKind::kSemanticInvalid)
        << "node " << u;
  }
}

TEST(Serialization, FromBytesEdgeCases) {
  // Empty input and short headers are truncation, not a crash.
  EXPECT_THROW((void)from_bytes(std::vector<std::uint8_t>{}), DecodeError);
  EXPECT_THROW((void)from_bytes({0, 0, 0}), DecodeError);
  try {
    (void)from_bytes(std::vector<std::uint8_t>(7, 0));
    FAIL();
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeErrorKind::kTruncated);
  }

  // Header-only with a zero count is a valid empty bit string.
  EXPECT_TRUE(from_bytes(std::vector<std::uint8_t>(8, 0)).empty());

  // Payload short by exactly one bit: count=9 needs two payload bytes.
  std::vector<std::uint8_t> short_by_one(8, 0);
  short_by_one[0] = 9;
  short_by_one.push_back(0xFF);
  try {
    (void)from_bytes(short_by_one);
    FAIL();
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeErrorKind::kTruncated);
  }

  // Trailing junk bytes after the declared payload are rejected.
  std::vector<std::uint8_t> trailing(8, 0);
  trailing[0] = 8;
  trailing.push_back(0xAB);
  EXPECT_EQ(from_bytes(trailing).size(), 8u);
  trailing.push_back(0xCD);
  try {
    (void)from_bytes(trailing);
    FAIL();
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeErrorKind::kSemanticInvalid);
  }

  // Nonzero padding bits in the final partial byte are corruption.
  std::vector<std::uint8_t> padded(8, 0);
  padded[0] = 4;
  padded.push_back(0xF0);
  EXPECT_THROW((void)from_bytes(padded), DecodeError);

  // A hostile 64-bit count must not drive any allocation.
  std::vector<std::uint8_t> hostile(8, 0xFF);
  hostile.push_back(0x00);
  try {
    (void)from_bytes(hostile);
    FAIL();
  } catch (const DecodeError& e) {
    EXPECT_EQ(e.kind(), DecodeErrorKind::kTruncated);
  }
}

TEST(Serialization, SaveIsAtomic) {
  const Graph g = certified(16, 901);
  const auto a = serialize(CompactDiam2Scheme(g, {}));
  const auto b = serialize(HubScheme(g));
  const std::string path = "/tmp/optrt_atomic_test.ort";
  const std::string tmp = path + ".tmp";
  save_artifact(path, a);
  EXPECT_EQ(load_artifact(path), a);
  // No staging file survives a successful save.
  EXPECT_FALSE(static_cast<bool>(std::ifstream(tmp)));
  // Overwrite goes through the same staged rename.
  save_artifact(path, b);
  EXPECT_EQ(load_artifact(path), b);
  EXPECT_FALSE(static_cast<bool>(std::ifstream(tmp)));
  std::remove(path.c_str());
  // An unwritable destination throws and leaves no artifact behind.
  EXPECT_THROW(save_artifact("/nonexistent/dir/x.ort", a),
               std::runtime_error);
}

bitio::BitVector artifact_from_hex(const std::string& hex) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(hex.size() / 2);
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<std::uint8_t>(
        std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return from_bytes(bytes);
}

// --- Pinned v0 (legacy, pre-framing) artifacts ------------------------------
// Generated by tools/gen_v0_fixtures.cpp against the last pre-framing tree.
// These bytes must keep decoding forever: they are the deployed format.

TEST(Serialization, LegacyV0CompactDiam2StillLoads) {
  const Graph g = certified(16, 901);
  const auto artifact = artifact_from_hex(
      "93020000000000004f52543131f1fc4110356be1b1b16953171d1b9bdad4f983046ad63c02c08b316f00"
      "28414d2230348f003c9bcc1255943ecb8016c8bc024c8cb65801082282994f24607d"
      "2e5400414865f64055a5b309e04303");
  const ArtifactInfo info = inspect(artifact);
  EXPECT_EQ(info.version, 0);
  EXPECT_EQ(info.kind, SchemeKind::kCompactDiam2);
  EXPECT_EQ(info.node_count, 16u);
  const CompactDiam2Scheme loaded = deserialize_compact_diam2(artifact, g);
  expect_same_routing(g, CompactDiam2Scheme(g, {}), loaded);
  EXPECT_TRUE(model::verify_scheme(g, loaded).ok());
}

TEST(Serialization, LegacyV0HubStillLoads) {
  const Graph g = certified(16, 901);
  const auto artifact = artifact_from_hex(
      "bb000000000000004f52543165a2367f1044cd6aa1050da0016db4d0440b2d00");
  EXPECT_EQ(inspect(artifact).version, 0);
  const HubScheme loaded = deserialize_hub(artifact, g);
  expect_same_routing(g, HubScheme(g), loaded);
}

TEST(Serialization, LegacyV0RoutingCenterStillLoads) {
  const Graph g = certified(16, 901);
  const auto artifact = artifact_from_hex(
      "3d010000000000004f525431756285299b3f08a26655ab367f9040cdaa336f0028414d223054a15a855a"
      "d56ad5a95501");
  EXPECT_EQ(inspect(artifact).version, 0);
  const RoutingCenterScheme loaded = deserialize_routing_center(artifact, g);
  expect_same_routing(g, RoutingCenterScheme(g), loaded);
}

TEST(Serialization, LegacyV0FullTableStillLoads) {
  const Graph g = graph::grid(3, 3);
  const auto artifact = artifact_from_hex(
      "a6010000000000004f52543139042143658719534028a30a90d598ba22843957c830eb18423219c2b021"
      "909301ca9a0c84ed64a02887004f0680700818");
  EXPECT_EQ(inspect(artifact).version, 0);
  const FullTableScheme loaded = deserialize_full_table(artifact, g);
  expect_same_routing(g, FullTableScheme::standard(g), loaded);
}

TEST(Serialization, LegacyV0LandmarkStillLoads) {
  const Graph g = graph::grid(3, 3);
  const auto artifact = artifact_from_hex(
      "7c010000000000004f5254316da8d4e12448980b6704480339a902c2c215010165ce750708a625c90202"
      "61a22659c058122c2018086b4000");
  EXPECT_EQ(inspect(artifact).version, 0);
  const LandmarkScheme loaded = deserialize_landmark(artifact, g);
  expect_same_routing(g, LandmarkScheme(g), loaded);
}

TEST(Serialization, LegacyV0HierarchicalStillLoads) {
  const Graph g = graph::grid(4, 4);
  const auto artifact = artifact_from_hex(
      "a1040000000000004f5254317d6256c2fda57a2050d8f26c62082099104a16c4e6b3d64060423021369f"
      "35070381302e64fb36380808082a16d4e6b389a1808062c2e456bdd7e687038201a5"
      "72c2e856afb50604038a05b37aadd009990dabf3d9fc704040281830aa55efb58921"
      "01c180c9ac3abed70607050382e180d1bc166904b274df5a03044462c171bd363828"
      "2018108a45e7b5482390a5f300");
  EXPECT_EQ(inspect(artifact).version, 0);
  HierarchicalOptions opt;
  opt.levels = 2;
  const HierarchicalScheme loaded = deserialize_hierarchical(artifact, g);
  EXPECT_EQ(loaded.levels(), 2u);
  EXPECT_TRUE(model::verify_scheme(g, loaded).ok());
}

// --- Pinned v1 (framed) golden artifacts ------------------------------------
// The framed container is pinned byte-for-byte: serializing today's schemes
// must reproduce these exact transport bytes, and the bytes must keep
// decoding. Any change here is a wire-format break and needs a version bump.

std::string hex_of(const bitio::BitVector& artifact) {
  static const char digits[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : to_bytes(artifact)) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 15]);
  }
  return out;
}

void expect_golden(const bitio::BitVector& artifact, const std::string& hex,
                   SchemeKind kind, std::uint64_t n, const Graph& g) {
  EXPECT_EQ(hex_of(artifact), hex) << to_string(kind);
  const auto pinned = artifact_from_hex(hex);
  const ArtifactInfo info = inspect(pinned);
  EXPECT_EQ(info.version, kFormatVersion);
  EXPECT_EQ(info.kind, kind);
  EXPECT_EQ(info.node_count, n);
  EXPECT_EQ(info.crc_stored, info.crc_computed);
  ASSERT_NE(deserialize_any(pinned, g), nullptr);
}

TEST(Serialization, GoldenV1ArtifactsArePinnedByteForByte) {
  const Graph dense = certified(16, 901);
  expect_golden(
      serialize(CompactDiam2Scheme(dense, {})),
      "16030000000000004f525432010110000000660200000000000025cb75b4e70f82a8"
      "590b8f8d4d9bbae8d8d8d4a6ce1f2450b3e611005e8c790340096a1281a17904e0d9"
      "6496a8a2f45906b440e6156062b4c50a401011cc7c2201eb73a10208422ab307aa2a"
      "9d4d001f1a",
      SchemeKind::kCompactDiam2, 16, dense);
  expect_golden(
      serialize(HubScheme(dense)),
      "3d010000000000004f5254320103100000008d000000000000005cde4bbbdafc4110"
      "35ab8516348006b4d142132db400",
      SchemeKind::kHub, 16, dense);
  expect_golden(
      serialize(RoutingCenterScheme(dense)),
      "bf010000000000004f5254320104100000000f01000000000000b5536b9e15a66cfe"
      "20889a55addafc410235abcebc01a0043589c050856a156a55ab55a75605",
      SchemeKind::kRoutingCenter, 16, dense);

  const Graph g33 = graph::grid(3, 3);
  expect_golden(
      serialize(FullTableScheme::standard(g33)),
      "2a020000000000004f5254320102090000007a0100000000000"
      "06fb6cd23103254769831058432aa00598da92b429873850cb38e212493210c1b02"
      "3919a0acc940d84e068a7208f0640008878001",
      SchemeKind::kFullTable, 9, g33);
  expect_golden(
      serialize(LandmarkScheme(g33)),
      "ff010000000000004f5254320105090000004f0100000000000033f7652da50e2741"
      "c25c3823401ac849151016ae08082873ae3b40302d491610081335c902c6926001c1"
      "40580302",
      SchemeKind::kLandmark, 9, g33);
  expect_golden(
      serialize(SequentialSearchScheme(g33)),
      "b0000000000000004f525432010709000000000000000000000069df2265",
      SchemeKind::kSequentialSearch, 9, g33);
  expect_golden(
      serialize(TzScheme(g33)),
      "7b010000000000004f525432010809000000cb00000000000000e992ccca0d62e886088c030a4300c681827188611c2a1882300e000c4100",
      SchemeKind::kThorupZwick, 9, g33);

  const Graph g44 = graph::grid(4, 4);
  HierarchicalOptions opt;
  opt.levels = 2;
  expect_golden(
      serialize(HierarchicalScheme(g44, opt)),
      "23050000000000004f52543201061000000073040000000000004a1b4c2b5909f797"
      "ea814061cbb389218064422859109bcf5a038109c184d87cd61c0c04c2b890eddbe0"
      "202020a858509bcf268602028a09935bf55e9b1f0e080694ca09a35bbdd61a100c28"
      "16cceab542276436acce67f3c30101a160c0a856bdd7268604040326b3eaf85e1b1c"
      "140c08860346f35aa411c8d27d6b0d10108905c7f5dae0a080604028169dd7228d40"
      "96ce03",
      SchemeKind::kHierarchical, 16, g44);
}

}  // namespace
}  // namespace optrt::schemes
