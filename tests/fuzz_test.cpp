// Randomized differential and robustness tests: bitio against a reference
// model, codecs against random inputs, schemes against each other.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "core/experiment.hpp"
#include "graph/algorithms.hpp"
#include "graph/encoding.hpp"
#include "graph/generators.hpp"
#include "incompressibility/enumerative.hpp"
#include "incompressibility/lemma_codecs.hpp"
#include "model/fastpath.hpp"
#include "model/verifier.hpp"
#include "net/chaos.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "schemes/compact_diam2.hpp"
#include "schemes/full_table.hpp"
#include "schemes/sequential_search.hpp"
#include "schemes/serialization.hpp"
#include "serve/protocol.hpp"

namespace optrt {
namespace {

using graph::Graph;
using graph::Rng;

TEST(Fuzz, BitVectorAgainstReferenceModel) {
  std::mt19937_64 rng(901);
  for (int trial = 0; trial < 20; ++trial) {
    bitio::BitVector bits;
    std::vector<bool> reference;
    for (int op = 0; op < 500; ++op) {
      const auto choice = rng() % 3;
      if (choice == 0 || reference.empty()) {
        const bool b = rng() & 1u;
        bits.push_back(b);
        reference.push_back(b);
      } else if (choice == 1) {
        const std::size_t i = rng() % reference.size();
        const bool b = rng() & 1u;
        bits.set(i, b);
        reference[i] = b;
      } else {
        const std::size_t i = rng() % reference.size();
        ASSERT_EQ(bits.get(i), reference[i]);
      }
    }
    ASSERT_EQ(bits.size(), reference.size());
    std::size_t expected_pop = 0;
    for (bool b : reference) expected_pop += b ? 1 : 0;
    EXPECT_EQ(bits.popcount(), expected_pop);
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(bits.get(i), reference[i]);
    }
  }
}

TEST(Fuzz, MixedCodeStreamsRoundTrip) {
  std::mt19937_64 rng(902);
  for (int trial = 0; trial < 50; ++trial) {
    // Write a random interleaving of codes, read it back.
    std::vector<std::pair<int, std::uint64_t>> script;
    bitio::BitWriter w;
    for (int i = 0; i < 40; ++i) {
      const int kind = static_cast<int>(rng() % 5);
      const std::uint64_t value = rng() % 100000;
      script.emplace_back(kind, value);
      switch (kind) {
        case 0: bitio::write_bar(w, value); break;
        case 1: bitio::write_prime(w, value); break;
        case 2: bitio::write_unary(w, value % 300); break;
        case 3: bitio::write_elias_gamma(w, value + 1); break;
        case 4: bitio::write_elias_delta(w, value + 1); break;
      }
    }
    const bitio::BitVector bits = w.bits();
    bitio::BitReader r(bits);
    for (const auto& [kind, value] : script) {
      switch (kind) {
        case 0: ASSERT_EQ(bitio::read_bar(r), value); break;
        case 1: ASSERT_EQ(bitio::read_prime(r), value); break;
        case 2: ASSERT_EQ(bitio::read_unary(r), value % 300); break;
        case 3: ASSERT_EQ(bitio::read_elias_gamma(r), value + 1); break;
        case 4: ASSERT_EQ(bitio::read_elias_delta(r), value + 1); break;
      }
    }
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(Fuzz, EnumerativeRandomEnsembles) {
  std::mt19937_64 rng(903);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng() % 200;
    const std::size_t k = rng() % (n + 1);
    bitio::BitVector bits(n);
    // Reservoir-style: choose k positions.
    std::vector<std::size_t> pos(n);
    for (std::size_t i = 0; i < n; ++i) pos[i] = i;
    std::shuffle(pos.begin(), pos.end(), rng);
    for (std::size_t i = 0; i < k; ++i) bits.set(pos[i], true);
    const auto rank = incompress::rank_fixed_weight(bits);
    ASSERT_EQ(incompress::unrank_fixed_weight(n, k, rank), bits)
        << "n=" << n << " k=" << k;
  }
}

TEST(Fuzz, EncodingRandomGraphsOfRandomSizes) {
  std::mt19937_64 seed_rng(904);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + seed_rng() % 60;
    Rng rng(seed_rng());
    const Graph g = graph::random_gnp(n, 0.4, rng);
    ASSERT_EQ(graph::decode(graph::encode(g), n), g);
    // Lemma 1 codec round-trips for an arbitrary witness node too.
    const graph::NodeId u = static_cast<graph::NodeId>(seed_rng() % n);
    const auto d = incompress::lemma1_encode(g, u);
    ASSERT_EQ(incompress::lemma1_decode(d.bits, n), g);
  }
}

TEST(Fuzz, CompactAndFullTableAgreeOnDistances) {
  // Differential test: both schemes are shortest path, so hop-by-hop they
  // must reach the destination in exactly d(u, v) steps.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed + 905);
    const Graph g = core::certified_random_graph(64, rng);
    const schemes::CompactDiam2Scheme compact(g, {});
    const schemes::FullTableScheme table = schemes::FullTableScheme::standard(g);
    const graph::DistanceMatrix dist(g);
    for (graph::NodeId u = 0; u < 64; ++u) {
      for (graph::NodeId v = 0; v < 64; ++v) {
        if (u == v) continue;
        EXPECT_EQ(model::route_once(g, compact, u, v, 0), dist.at(u, v));
        EXPECT_EQ(model::route_once(g, table, u, v, 0), dist.at(u, v));
      }
    }
  }
}

TEST(Fuzz, MetricsJsonRoundTripsRandomRegistries) {
  // Randomized registries — hostile metric names (quotes, backslashes,
  // control bytes, UTF-8), zero counters, unset gauges, empty histograms —
  // must serialize to JSON that parses back to exactly the snapshot, and
  // re-serializing the parsed tree must reproduce the bytes.
  const std::vector<std::string> name_pool = {
      "plain",
      "with\"quote",
      "back\\slash",
      "tab\tnl\ncr\r",
      std::string("ctl\x01\x1f"),
      "unicode.héloïse.λ",
      "日本語.メトリクス",
      "dots.and-dashes_0",
  };
  std::mt19937_64 rng(908);
  for (int trial = 0; trial < 40; ++trial) {
    obs::ScopedRegistry scoped;
    auto& reg = scoped.registry();
    for (std::size_t i = 0; i < name_pool.size(); ++i) {
      const std::string name =
          name_pool[i] + "." + std::to_string(rng() % 4);
      switch (rng() % 3) {
        case 0: {
          const auto c = reg.counter(name);
          if (rng() % 3 != 0) c.inc(rng() % 1'000'000);  // sometimes zero
          break;
        }
        case 1: {
          const auto g = reg.gauge(name);
          if (rng() % 3 != 0) {
            g.set(static_cast<std::int64_t>(rng()) >> (rng() % 32));
          }
          break;
        }
        default: {
          std::vector<std::uint64_t> bounds;
          std::uint64_t b = 0;
          const std::size_t nb = rng() % 5;
          for (std::size_t k = 0; k < nb; ++k) {
            b += 1 + rng() % 100;
            bounds.push_back(b);
          }
          const auto h = reg.histogram(name, bounds);
          const std::size_t observations = rng() % 4;  // often empty
          for (std::size_t k = 0; k < observations; ++k) {
            h.observe(rng() % 500);
          }
          break;
        }
      }
    }
    const std::int64_t wall =
        trial % 2 == 0 ? -1 : static_cast<std::int64_t>(rng() % 1'000'000);
    const std::string json = obs::metrics_json(reg, wall);
    const obs::JsonValue doc = obs::parse_json(json);
    EXPECT_EQ(obs::dump_json(doc), json);

    const obs::MetricsSnapshot snap = reg.snapshot();
    const obs::JsonValue* counters = doc.find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_EQ(counters->object.size(), snap.counters.size());
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
      EXPECT_EQ(counters->object[i].first, snap.counters[i].first);
      EXPECT_EQ(counters->object[i].second.uint_value, snap.counters[i].second);
    }
    const obs::JsonValue* gauges = doc.find("gauges");
    ASSERT_NE(gauges, nullptr);
    ASSERT_EQ(gauges->object.size(), snap.gauges.size());
    for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
      EXPECT_EQ(gauges->object[i].first, snap.gauges[i].first);
      const obs::JsonValue& v = gauges->object[i].second;
      const std::int64_t parsed =
          v.kind == obs::JsonValue::Kind::kUInt
              ? static_cast<std::int64_t>(v.uint_value)
              : v.int_value;
      EXPECT_EQ(parsed, snap.gauges[i].second);
    }
    const obs::JsonValue* hists = doc.find("histograms");
    ASSERT_NE(hists, nullptr);
    ASSERT_EQ(hists->object.size(), snap.histograms.size());
    for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
      EXPECT_EQ(hists->object[i].first, snap.histograms[i].first);
      const obs::JsonValue& h = hists->object[i].second;
      const obs::HistogramSnapshot& hs = snap.histograms[i].second;
      ASSERT_EQ(h.find("bounds")->array.size(), hs.bounds.size());
      ASSERT_EQ(h.find("counts")->array.size(), hs.counts.size());
      for (std::size_t k = 0; k < hs.counts.size(); ++k) {
        EXPECT_EQ(h.find("counts")->array[k].uint_value, hs.counts[k]);
      }
      EXPECT_EQ(h.find("sum")->uint_value, hs.sum);
      EXPECT_EQ(h.find("count")->uint_value, hs.count());
    }
    const obs::JsonValue* wall_field = doc.find("wall_ns");
    if (wall < 0) {
      EXPECT_EQ(wall_field, nullptr);
    } else {
      ASSERT_NE(wall_field, nullptr);
      EXPECT_EQ(wall_field->uint_value, static_cast<std::uint64_t>(wall));
    }
  }
}

TEST(Fuzz, TamperedCompactTablesNeverCrashDecode) {
  // Random single-bit corruptions of a node's table either change routing,
  // throw on decode, or leave the table identical in the unused tail —
  // decoding must never read out of bounds (ASAN-clean under fuzz).
  Rng rng(906);
  const Graph g = core::certified_random_graph(48, rng);
  const schemes::CompactDiam2Scheme scheme(g, {});
  std::mt19937_64 frng(907);
  const auto& original = scheme.function_bits(0);
  const auto nbrs = g.neighbors(0);
  for (int trial = 0; trial < 64; ++trial) {
    bitio::BitVector tampered = original;
    const std::size_t pos = frng() % tampered.size();
    tampered.set(pos, !tampered.get(pos));
    try {
      const auto decoded = schemes::decode_compact_node(
          tampered, 48, 0, {}, {nbrs.begin(), nbrs.end()});
      (void)decoded;
    } catch (const std::exception&) {
      // Rejection is a valid outcome.
    }
  }
}

TEST(Fuzz, RandomArtifactBytesNeverCrashDecode) {
  // from_bytes + deserialize_any over purely random byte buffers: every
  // outcome is a typed DecodeError or (vanishingly unlikely) a valid
  // decode — never a crash, hang, or hostile allocation.
  Rng grng(909);
  const Graph g = core::certified_random_graph(16, grng);
  std::mt19937_64 rng(910);
  std::size_t survived_transport = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t len = static_cast<std::size_t>(rng() % 96);
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    // Half the trials get a plausible length prefix so they reach the
    // frame parser instead of dying at the transport layer.
    if (len >= 8 && trial % 2 == 0) {
      const std::uint64_t bits = (len - 8) * 8;
      for (int i = 0; i < 8; ++i) {
        bytes[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(bits >> (8 * i));
      }
    }
    try {
      const bitio::BitVector artifact = schemes::from_bytes(bytes);
      ++survived_transport;
      (void)schemes::deserialize_any(artifact, g);
    } catch (const schemes::DecodeError&) {
      // The only acceptable failure mode.
    }
  }
  EXPECT_GT(survived_transport, 0u);
}

/// A next-hop query's outcome as text: the hop, or the exception message.
template <typename Fn>
std::string hop_outcome(Fn&& fn) {
  try {
    return std::to_string(fn());
  } catch (const std::exception& e) {
    return std::string("throw: ") + e.what();
  }
}

TEST(Fuzz, CorruptedArtifactsCompileFastWithIdenticalErrors) {
  // The compile-to-fast-path entry point must present exactly the decode
  // path's error surface: for every chaos-corrupted artifact, either both
  // reject with the same typed DecodeError kind, or both accept — and on
  // acceptance the compiled hops and next_hop must match the bit-decoding
  // reference hop for hop.
  Rng grng(912);
  const Graph g = core::certified_random_graph(24, grng);
  const auto artifacts = {
      schemes::serialize(schemes::CompactDiam2Scheme(g, {})),
      schemes::serialize(schemes::FullTableScheme::standard(g)),
      schemes::serialize(schemes::HubScheme(g)),
      schemes::serialize(schemes::RoutingCenterScheme(g)),
      schemes::serialize(schemes::LandmarkScheme(g)),
      schemes::serialize(schemes::HierarchicalScheme(g)),
      schemes::serialize(schemes::SequentialSearchScheme(g)),
      schemes::serialize(schemes::TzScheme(g)),
  };
  for (const auto& artifact : artifacts) {
    for (std::uint64_t seed = 0; seed < 512; ++seed) {
      const bitio::BitVector bad = net::corrupt(artifact, seed);
      std::unique_ptr<model::RoutingScheme> slow;
      std::optional<schemes::DecodeErrorKind> slow_error;
      try {
        slow = schemes::deserialize_any(bad, g);
      } catch (const schemes::DecodeError& e) {
        slow_error = e.kind();
      }
      schemes::FastScheme compiled;
      std::optional<schemes::DecodeErrorKind> fast_error;
      try {
        compiled = schemes::compile_fast_from_artifact(bad, g);
      } catch (const schemes::DecodeError& e) {
        fast_error = e.kind();
      }
      ASSERT_EQ(slow_error.has_value(), fast_error.has_value())
          << "seed=" << seed;
      if (slow_error.has_value()) {
        ASSERT_EQ(*slow_error, *fast_error) << "seed=" << seed;
        continue;
      }
      ASSERT_NE(compiled.fast, nullptr);
      for (graph::NodeId u = 0; u < 24; ++u) {
        for (graph::NodeId v = 0; v < 24; ++v) {
          if (v == u) continue;
          const graph::NodeId label = slow->label_of(v);
          const std::string reference = hop_outcome(
              [&] { return slow->reference_next_hop(g, u, label); });
          ASSERT_EQ(hop_outcome([&] {
                      return compiled.fast->next_hop(u, label);
                    }),
                    reference)
              << "seed=" << seed << " u=" << u << " v=" << v;
          ASSERT_EQ(hop_outcome([&] {
                      model::MessageHeader header;
                      return slow->next_hop(u, label, header);
                    }),
                    reference)
              << "seed=" << seed << " u=" << u << " v=" << v;
        }
      }
    }
  }
}

TEST(Fuzz, RandomBitStringsNeverCrashFrameInspection) {
  std::mt19937_64 rng(911);
  for (int trial = 0; trial < 4000; ++trial) {
    bitio::BitVector bits;
    const std::size_t len = static_cast<std::size_t>(rng() % 400);
    for (std::size_t i = 0; i < len; ++i) bits.push_back(rng() & 1u);
    // Half the trials start with a valid magic so the header parser runs.
    if (len >= 32 && trial % 2 == 0) {
      const std::uint32_t magic =
          trial % 4 == 0 ? schemes::kFrameMagic : schemes::kLegacyMagic;
      for (std::size_t i = 0; i < 32; ++i) bits.set(i, (magic >> i) & 1u);
    }
    try {
      (void)schemes::inspect(bits);
    } catch (const schemes::DecodeError&) {
    }
  }
}

TEST(Fuzz, RandomBytesNeverCrashWireFrameParsing) {
  std::mt19937_64 rng(937);
  for (int trial = 0; trial < 10000; ++trial) {
    const std::size_t len = static_cast<std::size_t>(rng() % 96);
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    // Half the trials start with the real magic + version so the later
    // header checks and the payload/CRC layers run too.
    if (len >= 5 && trial % 2 == 0) {
      bytes[0] = 'O';
      bytes[1] = 'R';
      bytes[2] = 'T';
      bytes[3] = 'P';
      bytes[4] = serve::kWireVersion;
    }
    try {
      const serve::Frame frame = serve::parse_frame(bytes);
      // The rare fully-valid draw must decode or reject as typed errors.
      try {
        (void)serve::decode_query_pairs(frame);
      } catch (const serve::ProtocolError&) {
      }
      try {
        (void)serve::decode_error(frame);
      } catch (const serve::ProtocolError&) {
      }
    } catch (const serve::ProtocolError&) {
    }
  }
}

}  // namespace
}  // namespace optrt
