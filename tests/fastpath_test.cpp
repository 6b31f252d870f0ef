// Differential oracle for the compiled fast paths: every scheme kind's
// FastPath and its next_hop (fresh header) must answer the full pair space
// bit-identically to the BitReader decode path
// (RoutingScheme::reference_next_hop), including which exceptions are
// thrown and their messages — on seeded G(n,1/2), ring, grid and
// Barabási–Albert topologies, at any shard/thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "core/experiment.hpp"
#include "core/parallel.hpp"
#include "graph/generators.hpp"
#include "model/fastpath.hpp"
#include "model/scheme.hpp"
#include "obs/metrics.hpp"
#include "schemes/compact_diam2.hpp"
#include "schemes/full_information.hpp"
#include "schemes/full_table.hpp"
#include "schemes/hierarchical.hpp"
#include "schemes/hub.hpp"
#include "schemes/k_interval.hpp"
#include "schemes/landmark.hpp"
#include "schemes/neighbor_label.hpp"
#include "schemes/routing_center.hpp"
#include "schemes/sequential_search.hpp"
#include "schemes/serialization.hpp"
#include "schemes/tz.hpp"

namespace optrt {
namespace {

using graph::Graph;
using graph::NodeId;
using graph::Rng;

Graph certified(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return core::certified_random_graph(n, rng);
}

/// What one next-hop query did: returned a hop or threw which exception.
struct Outcome {
  enum Kind { kHop, kInvalidArgument, kLogicError, kOther } kind = kHop;
  NodeId hop = 0;
  std::string what;

  bool operator==(const Outcome&) const = default;
};

template <typename Fn>
Outcome capture(Fn&& fn) {
  Outcome out;
  try {
    out.hop = fn();
  } catch (const std::invalid_argument& e) {
    out.kind = Outcome::kInvalidArgument;
    out.what = e.what();
  } catch (const std::logic_error& e) {
    out.kind = Outcome::kLogicError;
    out.what = e.what();
  } catch (const std::exception& e) {
    out.kind = Outcome::kOther;
    out.what = e.what();
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  return os << "{" << o.kind << "," << o.hop << "," << o.what << "}";
}

/// Every ordered query — including the routing-to-self ones — must have
/// the identical outcome on the bit-decoding reference, on next_hop with a
/// fresh header, and on the compiled path.
void expect_differentially_equal(const Graph& g,
                                 const model::RoutingScheme& scheme) {
  const auto fast = scheme.compile_fast();
  ASSERT_NE(fast, nullptr);
  EXPECT_EQ(fast->name(), scheme.name());
  const auto n = static_cast<NodeId>(scheme.node_count());
  EXPECT_EQ(fast->node_count(), n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      const NodeId label = scheme.label_of(v);
      const Outcome reference =
          capture([&] { return scheme.reference_next_hop(g, u, label); });
      const Outcome slow = capture([&] {
        model::MessageHeader header;
        return scheme.next_hop(u, label, header);
      });
      const Outcome fast_out = capture([&] { return fast->next_hop(u, label); });
      ASSERT_EQ(reference, slow)
          << scheme.name() << ": u=" << u << " dest=" << v;
      ASSERT_EQ(reference, fast_out)
          << scheme.name() << ": u=" << u << " dest=" << v;
    }
  }
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t value) {
  for (int b = 0; b < 8; ++b) {
    h ^= (value >> (8 * b)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

/// Fingerprint of the full non-self pair space routed through route_batch,
/// sharded by source via core::parallel_map and merged in source order —
/// so the value must not depend on the thread count.
std::uint64_t batch_fingerprint(const model::RoutingScheme& scheme,
                                const model::FastPath& fast,
                                std::size_t threads) {
  const auto n = static_cast<NodeId>(scheme.node_count());
  std::vector<NodeId> labels(n);
  for (NodeId v = 0; v < n; ++v) labels[v] = scheme.label_of(v);
  const auto shard_hashes = core::parallel_map<std::uint64_t>(
      threads, n, [&](std::size_t u_index) {
        const auto u = static_cast<NodeId>(u_index);
        std::vector<model::RoutePair> pairs;
        pairs.reserve(n - 1);
        for (NodeId v = 0; v < n; ++v) {
          if (v != u) pairs.push_back({u, labels[v]});
        }
        std::vector<NodeId> hops(pairs.size());
        fast.route_batch(pairs, hops);
        std::uint64_t h = kFnvBasis;
        for (const NodeId hop : hops) h = fnv1a(h, hop);
        return h;
      });
  std::uint64_t h = kFnvBasis;
  for (const std::uint64_t sh : shard_hashes) h = fnv1a(h, sh);
  return h;
}

std::uint64_t reference_fingerprint(const Graph& g,
                                    const model::RoutingScheme& scheme) {
  const auto n = static_cast<NodeId>(scheme.node_count());
  std::uint64_t outer = kFnvBasis;
  for (NodeId u = 0; u < n; ++u) {
    std::uint64_t h = kFnvBasis;
    for (NodeId v = 0; v < n; ++v) {
      if (v == u) continue;
      h = fnv1a(h, scheme.reference_next_hop(g, u, scheme.label_of(v)));
    }
    outer = fnv1a(outer, h);
  }
  return outer;
}

void expect_fingerprints_stable(const Graph& g,
                                const model::RoutingScheme& scheme) {
  const auto fast = scheme.compile_fast();
  const std::uint64_t reference = reference_fingerprint(g, scheme);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    EXPECT_EQ(batch_fingerprint(scheme, *fast, threads), reference)
        << scheme.name() << " at " << threads << " threads";
  }
}

// --- All seven kinds on a certified G(n, 1/2) ------------------------------

TEST(FastPath, CompactDiam2OnRandomGraph) {
  const Graph g = certified(96, 1996);
  expect_differentially_equal(g, schemes::CompactDiam2Scheme(g, {}));
  // Model IB: each table carries its own interconnection vector.
  expect_differentially_equal(
      g, schemes::CompactDiam2Scheme(
             g, schemes::CompactDiam2Scheme::Options::for_model(
                    model::kIBalpha)));
  // Greedy cover order: tables ship their center ranks.
  schemes::CompactDiam2Scheme::Options greedy;
  greedy.node.greedy_cover = true;
  expect_differentially_equal(g, schemes::CompactDiam2Scheme(g, greedy));
}

TEST(FastPath, FullTableOnRandomGraph) {
  const Graph g = certified(96, 1996);
  expect_differentially_equal(g, schemes::FullTableScheme::standard(g));
}

TEST(FastPath, HubOnRandomGraph) {
  const Graph g = certified(96, 1996);
  expect_differentially_equal(g, schemes::HubScheme(g));
}

TEST(FastPath, RoutingCenterOnRandomGraph) {
  const Graph g = certified(96, 1996);
  expect_differentially_equal(g, schemes::RoutingCenterScheme(g));
}

TEST(FastPath, LandmarkOnRandomGraph) {
  const Graph g = certified(96, 1996);
  expect_differentially_equal(g, schemes::LandmarkScheme(g));
}

TEST(FastPath, HierarchicalOnRandomGraph) {
  const Graph g = certified(96, 1996);
  expect_differentially_equal(g, schemes::HierarchicalScheme(g));
}

TEST(FastPath, HierarchicalAtEveryDepth) {
  // The compiled decision takes the membership bits of the destination and
  // all of its pivots at once, so the mask spans every level: hold it to
  // the decoder at k = 2 and k = 4 as well as the default k = 3.
  const Graph graphs[] = {certified(96, 1996), graph::ring(64),
                          graph::grid(8, 8)};
  for (const Graph& g : graphs) {
    for (const std::size_t levels : {2u, 4u}) {
      schemes::HierarchicalOptions options;
      options.levels = levels;
      expect_differentially_equal(g, schemes::HierarchicalScheme(g, options));
    }
  }
}

/// Node w's hierarchical table with the entries toward `drop` removed:
/// a table that decodes cleanly but no longer resolves those targets.
bitio::BitVector without_entries(const Graph& g, NodeId w,
                                 const bitio::BitVector& bits,
                                 const std::vector<NodeId>& drop) {
  const unsigned id_width = bitio::id_width(g.node_count());
  const unsigned port_width = bitio::port_width(g.degree(w));
  struct Entry {
    std::uint64_t target, port, installed;
  };
  bitio::BitReader r(bits);
  const std::uint64_t count = bitio::read_prime(r);
  std::vector<Entry> kept;
  for (std::uint64_t e = 0; e < count; ++e) {
    Entry entry{};
    entry.target = r.read_bits(id_width);
    entry.port = r.read_bits(port_width);
    entry.installed = r.read_bits(1);
    if (std::find(drop.begin(), drop.end(), entry.target) == drop.end()) {
      kept.push_back(entry);
    }
  }
  bitio::BitWriter out;
  bitio::write_prime(out, kept.size());
  for (const Entry& entry : kept) {
    out.write_bits(entry.target, id_width);
    out.write_bits(entry.port, port_width);
    out.write_bits(entry.installed, 1);
  }
  return out.take();
}

TEST(FastPath, HierarchicalMissingEntriesThrowLikeTheDecoder) {
  // Tables that decode but lack entries reach the decision's two error
  // paths: the handoff at a destination's own pivot, and a destination
  // nothing resolves. The compiled decision must throw where the decoder
  // throws, with the same message, instead of heading for a higher pivot.
  const Graph g = certified(96, 1996);
  const schemes::HierarchicalScheme built(g);
  const auto n = static_cast<NodeId>(g.node_count());
  const NodeId pivot = built.pivots(1)[0];
  const NodeId empty = built.pivots(1)[1];
  std::vector<NodeId> members;  // the destinations whose level-1 pivot it is
  for (NodeId v = 0; v < n; ++v) {
    if (v != pivot && built.pivot_of(1, v) == pivot) members.push_back(v);
  }
  ASSERT_FALSE(members.empty());
  std::vector<NodeId> everyone(n);
  for (NodeId v = 0; v < n; ++v) everyone[v] = v;
  std::vector<bitio::BitVector> bits;
  for (NodeId w = 0; w < n; ++w) bits.push_back(built.function_bits(w));
  bits[pivot] = without_entries(g, pivot, bits[pivot], members);
  bits[empty] = without_entries(g, empty, bits[empty], everyone);
  std::vector<std::vector<NodeId>> pivot_sets(built.levels());
  for (std::size_t i = 1; i < built.levels(); ++i) {
    pivot_sets[i] = built.pivots(i);
  }
  expect_differentially_equal(
      g, schemes::HierarchicalScheme(g, pivot_sets, std::move(bits)));
}

TEST(FastPath, SequentialSearchOnRandomGraph) {
  const Graph g = certified(96, 1996);
  expect_differentially_equal(g, schemes::SequentialSearchScheme(g));
}

TEST(FastPath, ThorupZwickOnRandomGraph) {
  const Graph g = certified(96, 1996);
  expect_differentially_equal(g, schemes::TzScheme(g));
}

// --- Structured and power-law topologies (the diameter-2 kinds do not
// apply) ---------------------------------------------------------------------

TEST(FastPath, GeneralSchemesOnRing) {
  const Graph g = graph::ring(64);
  expect_differentially_equal(g, schemes::FullTableScheme::standard(g));
  expect_differentially_equal(g, schemes::LandmarkScheme(g));
  expect_differentially_equal(g, schemes::HierarchicalScheme(g));
  expect_differentially_equal(g, schemes::SequentialSearchScheme(g));
  expect_differentially_equal(g, schemes::TzScheme(g));
}

TEST(FastPath, GeneralSchemesOnGrid) {
  const Graph g = graph::grid(8, 8);
  expect_differentially_equal(g, schemes::FullTableScheme::standard(g));
  expect_differentially_equal(g, schemes::LandmarkScheme(g));
  expect_differentially_equal(g, schemes::HierarchicalScheme(g));
  expect_differentially_equal(g, schemes::SequentialSearchScheme(g));
  expect_differentially_equal(g, schemes::TzScheme(g));
}

TEST(FastPath, GeneralSchemesOnBarabasiAlbert) {
  const Graph g = graph::TopologyFamily::parse("ba:2").make(256, 1996);
  expect_differentially_equal(g, schemes::LandmarkScheme(g));
  expect_differentially_equal(g, schemes::HierarchicalScheme(g));
  expect_differentially_equal(g, schemes::TzScheme(g));
}

// --- Sharded batches: same fingerprint at 1, 2, and 8 threads --------------

TEST(FastPath, BatchFingerprintsIndependentOfThreadCount) {
  const Graph g = certified(96, 1996);
  expect_fingerprints_stable(g, schemes::CompactDiam2Scheme(g, {}));
  expect_fingerprints_stable(g, schemes::FullTableScheme::standard(g));
  expect_fingerprints_stable(g, schemes::HubScheme(g));
  expect_fingerprints_stable(g, schemes::RoutingCenterScheme(g));
  expect_fingerprints_stable(g, schemes::LandmarkScheme(g));
  expect_fingerprints_stable(g, schemes::HierarchicalScheme(g));
  expect_fingerprints_stable(g, schemes::SequentialSearchScheme(g));
  expect_fingerprints_stable(g, schemes::TzScheme(g));
}

// --- Every scheme outlives the Graph it was built on ------------------------

/// A scheme's answers over every non-self pair: next_hop with a fresh
/// header, and route_batch on a fresh compile_fast().
struct Answers {
  std::vector<Outcome> hops;
  std::vector<NodeId> batch;

  bool operator==(const Answers&) const = default;
};

std::vector<model::RoutePair> non_self_pairs(
    const model::RoutingScheme& scheme) {
  const auto n = static_cast<NodeId>(scheme.node_count());
  std::vector<model::RoutePair> pairs;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (v != u) pairs.push_back({u, scheme.label_of(v)});
    }
  }
  return pairs;
}

Answers answers(const model::RoutingScheme& scheme) {
  const auto pairs = non_self_pairs(scheme);
  Answers out;
  for (const auto& [u, label] : pairs) {
    out.hops.push_back(capture([&] {
      model::MessageHeader header;
      return scheme.next_hop(u, label, header);
    }));
  }
  out.batch.resize(pairs.size());
  scheme.compile_fast()->route_batch(pairs, out.batch);
  return out;
}

/// Keeps a built scheme and the scheme decoded from its artifact.
template <typename Scheme>
void keep_built_and_decoded(
    std::vector<std::unique_ptr<model::RoutingScheme>>& out, const Graph& g,
    Scheme built) {
  out.push_back(schemes::deserialize_any(schemes::serialize(built), g));
  out.push_back(std::make_unique<Scheme>(std::move(built)));
}

TEST(FastPath, EverySchemeOutlivesItsGraph) {
  auto g = std::make_unique<Graph>(certified(64, 1996));
  std::vector<std::unique_ptr<model::RoutingScheme>> all;
  keep_built_and_decoded(all, *g, schemes::CompactDiam2Scheme(*g, {}));
  keep_built_and_decoded(all, *g, schemes::FullTableScheme::standard(*g));
  keep_built_and_decoded(all, *g, schemes::HubScheme(*g));
  keep_built_and_decoded(all, *g, schemes::RoutingCenterScheme(*g));
  keep_built_and_decoded(all, *g, schemes::LandmarkScheme(*g));
  keep_built_and_decoded(all, *g, schemes::HierarchicalScheme(*g));
  keep_built_and_decoded(all, *g, schemes::SequentialSearchScheme(*g));
  keep_built_and_decoded(all, *g, schemes::TzScheme(*g));
  all.push_back(std::make_unique<schemes::NeighborLabelScheme>(*g));
  all.push_back(std::make_unique<schemes::FullInformationScheme>(
      schemes::FullInformationScheme::standard(*g)));
  all.push_back(std::make_unique<schemes::KIntervalScheme>(*g));

  std::vector<Answers> before;
  std::vector<std::shared_ptr<const model::FastPath>> compiled;
  for (const auto& scheme : all) {
    before.push_back(answers(*scheme));
    compiled.push_back(scheme->compile_fast());
  }
  g.reset();
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(answers(*all[i]), before[i]) << all[i]->name();
    const auto pairs = non_self_pairs(*all[i]);
    std::vector<NodeId> hops(pairs.size());
    compiled[i]->route_batch(pairs, hops);
    EXPECT_EQ(hops, before[i].batch) << all[i]->name();
  }
}

// --- Fallback, batch contract, and lookup.* counters -----------------------

TEST(FastPath, FallbackMatchesCompiledForm) {
  const Graph g = certified(48, 77);
  const auto table = schemes::FullTableScheme::standard(g);
  const auto compiled = table.compile_fast();
  const auto fallback = model::make_fallback_fastpath(table);
  for (NodeId u = 0; u < 48; ++u) {
    for (NodeId v = 0; v < 48; ++v) {
      if (v == u) continue;
      const NodeId label = table.label_of(v);
      ASSERT_EQ(compiled->next_hop(u, label), fallback->next_hop(u, label));
    }
  }
}

TEST(FastPath, RouteBatchRejectsLengthMismatch) {
  const Graph g = certified(16, 5);
  const auto fast = schemes::FullTableScheme::standard(g).compile_fast();
  const std::vector<model::RoutePair> pairs(3, model::RoutePair{0, 1});
  std::vector<NodeId> hops(2);
  EXPECT_THROW(fast->route_batch(pairs, hops), std::invalid_argument);
}

TEST(FastPath, BatchWithSelfPairThrowsLikeTheDecoder) {
  const Graph g = certified(16, 5);
  const auto fast = schemes::FullTableScheme::standard(g).compile_fast();
  // Big enough to take the vectorized kernel where available; the self
  // pair hides in the middle.
  std::vector<model::RoutePair> pairs;
  for (NodeId u = 0; u < 16; ++u) pairs.push_back({u, NodeId{(u + 1u) % 16}});
  pairs[9] = {7, 7};
  std::vector<NodeId> hops(pairs.size());
  EXPECT_THROW(fast->route_batch(pairs, hops), std::invalid_argument);
}

TEST(FastPath, LookupCountersTrackCompilesAndBatches) {
  obs::ScopedRegistry scoped;
  auto& reg = scoped.registry();
  const Graph g = certified(24, 9);
  const auto table = schemes::FullTableScheme::standard(g);
  const auto fast = table.compile_fast();
  EXPECT_EQ(reg.counter_value("lookup.compiled"), 1u);
  EXPECT_EQ(reg.counter_value("lookup.compiled.full_table"), 1u);

  std::vector<model::RoutePair> pairs;
  for (NodeId v = 1; v < 24; ++v) pairs.push_back({0, v});
  std::vector<NodeId> hops(pairs.size());
  fast->route_batch(pairs, hops);
  fast->route_batch(pairs, hops);
  EXPECT_EQ(reg.counter_value("lookup.batches"), 2u);
  EXPECT_EQ(reg.counter_value("lookup.pairs"), 2 * pairs.size());

  const auto hub = schemes::HubScheme(g).compile_fast();
  (void)hub;
  EXPECT_EQ(reg.counter_value("lookup.compiled"), 2u);
  EXPECT_EQ(reg.counter_value("lookup.compiled.hub"), 1u);

  // The six kinds that route from a compiled form build it once, in the
  // constructor; compile_fast() hands out that same form again.
  const auto compiles_once = [&](const model::RoutingScheme& scheme,
                                 const std::string& tag) {
    const std::uint64_t before = reg.counter_value("lookup.compiled." + tag);
    EXPECT_EQ(scheme.compile_fast(), scheme.compile_fast()) << tag;
    EXPECT_EQ(reg.counter_value("lookup.compiled." + tag), before) << tag;
  };
  compiles_once(schemes::CompactDiam2Scheme(g, {}), "compact_diam2");
  compiles_once(schemes::HubScheme(g), "hub");
  compiles_once(schemes::RoutingCenterScheme(g), "routing_center");
  compiles_once(schemes::LandmarkScheme(g), "landmark");
  compiles_once(schemes::TzScheme(g), "tz");
  compiles_once(schemes::HierarchicalScheme(g), "hierarchical");
  EXPECT_EQ(reg.counter_value("lookup.compiled.compact_diam2"), 1u);
  EXPECT_EQ(reg.counter_value("lookup.compiled.hub"), 2u);
  EXPECT_EQ(reg.counter_value("lookup.compiled.routing_center"), 1u);
  EXPECT_EQ(reg.counter_value("lookup.compiled.landmark"), 1u);
  EXPECT_EQ(reg.counter_value("lookup.compiled.tz"), 1u);
  EXPECT_EQ(reg.counter_value("lookup.compiled.hierarchical"), 1u);
}

}  // namespace
}  // namespace optrt
