// Differential checks that the instrumentation wired through the library
// agrees with the ground truth each layer already reports: simulator
// counters vs SimulationStats and per-message records, DistanceCache
// counters vs the cache's own accounting, codec bit counters vs the
// Descriptions and artifacts they measured, verifier counters vs the
// VerificationResult, and the pinned stats-JSON schema shared by
// `optrt_cli simulate` and bench_failures.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "incompressibility/lemma_codecs.hpp"
#include "model/verifier.hpp"
#include "net/faults.hpp"
#include "net/sim_metrics.hpp"
#include "net/simulator.hpp"
#include "net/workload.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "schemes/compact_diam2.hpp"
#include "schemes/compiler.hpp"
#include "schemes/hub.hpp"
#include "schemes/serialization.hpp"

namespace optrt {
namespace {

using graph::Graph;
using graph::Rng;

TEST(Instrumentation, SimulatorCountersMatchStatsAndRecords) {
  obs::ScopedRegistry scoped;
  auto& reg = scoped.registry();

  Rng rng(31);
  const Graph g = core::certified_random_graph(48, rng);
  const schemes::CompactDiam2Scheme scheme(g, {});
  // Enough failures that some messages drop: the hop counter must include
  // the hops dropped messages took before dying, which stats.total_hops
  // (delivered-only) does not.
  const net::FaultPlan plan =
      net::uniform_link_faults(g, 150, {.seed = 5});
  net::SimulatorConfig config;
  config.resilience.policy = net::ResiliencePolicy::kRetry;
  net::Simulator sim(g, scheme, config);
  sim.schedule(plan);
  Rng traffic_rng(32);
  for (const auto& [u, v] : net::uniform_random(48, 500, traffic_rng)) {
    sim.send(u, v);
  }
  const net::SimulationStats stats = sim.run();
  ASSERT_GT(stats.dropped, 0u) << "fault plan too weak for the differential";

  std::uint64_t all_hops = 0;
  std::uint64_t delivered_hops = 0;
  for (const net::MessageRecord& r : sim.records()) {
    all_hops += r.hops;
    if (r.delivered) delivered_hops += r.hops;
  }
  EXPECT_EQ(reg.counter_value("sim.hops"), all_hops);
  EXPECT_EQ(stats.total_hops, delivered_hops);
  EXPECT_GT(all_hops, delivered_hops);

  EXPECT_EQ(reg.counter_value("sim.sent"), stats.sent);
  EXPECT_EQ(reg.counter_value("sim.delivered"), stats.delivered);
  EXPECT_EQ(reg.counter_value("sim.dropped"), stats.dropped);
  EXPECT_EQ(reg.counter_value("sim.retries"), stats.total_retries);
  EXPECT_EQ(reg.counter_value("sim.deflections"), stats.deflections);
  EXPECT_EQ(reg.counter_value("sim.fallback_messages"),
            stats.fallback_messages);
  EXPECT_EQ(reg.counter_value("sim.runs"), 1u);
  EXPECT_EQ(reg.counter_value("sim.runs.policy.retry"), 1u);
  // repair_after defaults to 0, so every plan event is a failure and the
  // run replays all of them.
  EXPECT_EQ(reg.counter_value("sim.fault_events"), plan.fail_count());

  const obs::HistogramSnapshot hops = reg.histogram_value("sim.delivered_hops");
  EXPECT_EQ(hops.count(), stats.delivered);
  EXPECT_EQ(hops.sum, stats.total_hops);
}

TEST(Instrumentation, DistanceCacheCountersMatchCacheAccounting) {
  obs::ScopedRegistry scoped;
  auto& reg = scoped.registry();

  graph::DistanceCache cache(/*capacity=*/2);
  const Graph g1 = graph::chain(8);
  const Graph g2 = graph::ring(8);
  const Graph g3 = graph::star(8);

  (void)cache.get(g1);  // miss
  (void)cache.get(g1);  // hit
  (void)cache.get(g2);  // miss (size 2)
  (void)cache.get(g3);  // miss, evicts g1
  (void)cache.get(g1);  // miss again, evicts g2

  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(reg.counter_value("graph.distance_cache.hits"), cache.hits());
  EXPECT_EQ(reg.counter_value("graph.distance_cache.misses"), cache.misses());
  EXPECT_EQ(reg.counter_value("graph.distance_cache.evictions"), 2u);
  // The size gauge merges by max: the high-water mark of entries held.
  EXPECT_EQ(reg.gauge_value("graph.distance_cache.size"), 2);
}

TEST(Instrumentation, LemmaCodecBitCountersMatchDescriptions) {
  obs::ScopedRegistry scoped;
  auto& reg = scoped.registry();

  const Graph g = graph::chain(12);

  const auto d1 = incompress::lemma1_encode(g, incompress::most_deviant_node(g));
  EXPECT_EQ(reg.counter_value("codec.lemma1.encodes"), 1u);
  EXPECT_EQ(reg.counter_value("codec.lemma1.bits_in"), d1.original_bits);
  EXPECT_EQ(reg.counter_value("codec.lemma1.bits_out"), d1.bits.size());
  ASSERT_EQ(incompress::lemma1_decode(d1.bits, 12), g);
  EXPECT_EQ(reg.counter_value("codec.lemma1.decodes"), 1u);

  const auto pair2 = incompress::find_distant_pair(g);
  ASSERT_TRUE(pair2.has_value());
  const auto d2 = incompress::lemma2_encode(g, pair2->first, pair2->second);
  EXPECT_EQ(reg.counter_value("codec.lemma2.encodes"), 1u);
  EXPECT_EQ(reg.counter_value("codec.lemma2.bits_in"), d2.original_bits);
  EXPECT_EQ(reg.counter_value("codec.lemma2.bits_out"), d2.bits.size());
  ASSERT_EQ(incompress::lemma2_decode(d2.bits, 12), g);
  EXPECT_EQ(reg.counter_value("codec.lemma2.decodes"), 1u);

  const std::size_t prefix = 1;
  const auto pair3 = incompress::find_cover_violation(g, prefix);
  ASSERT_TRUE(pair3.has_value());
  const auto d3 =
      incompress::lemma3_encode(g, pair3->first, pair3->second, prefix);
  EXPECT_EQ(reg.counter_value("codec.lemma3.encodes"), 1u);
  EXPECT_EQ(reg.counter_value("codec.lemma3.bits_in"), d3.original_bits);
  EXPECT_EQ(reg.counter_value("codec.lemma3.bits_out"), d3.bits.size());
  ASSERT_EQ(incompress::lemma3_decode(d3.bits, 12, prefix), g);
  EXPECT_EQ(reg.counter_value("codec.lemma3.decodes"), 1u);

  // Bit accounting composes: savings per lemma is bits_in − bits_out.
  EXPECT_EQ(static_cast<std::ptrdiff_t>(
                reg.counter_value("codec.lemma1.bits_in")) -
                static_cast<std::ptrdiff_t>(
                    reg.counter_value("codec.lemma1.bits_out")),
            d1.savings());
}

TEST(Instrumentation, SerializationBitCountersMatchArtifacts) {
  obs::ScopedRegistry scoped;
  auto& reg = scoped.registry();

  Rng rng(41);
  const Graph g = core::certified_random_graph(32, rng);
  const schemes::CompactDiam2Scheme scheme(g, {});

  const bitio::BitVector artifact = schemes::serialize(scheme);
  EXPECT_EQ(reg.counter_value("schemes.artifact.serializes"), 1u);
  EXPECT_EQ(reg.counter_value("schemes.artifact.bits_out"), artifact.size());

  (void)schemes::deserialize_compact_diam2(artifact, g);
  EXPECT_EQ(reg.counter_value("schemes.artifact.deserializes"), 1u);
  EXPECT_EQ(reg.counter_value("schemes.artifact.bits_in"), artifact.size());

  const std::string path = testing::TempDir() + "obs_artifact.ort";
  schemes::save_artifact(path, artifact);
  EXPECT_EQ(reg.counter_value("schemes.artifact.saves"), 1u);
  EXPECT_EQ(schemes::load_artifact(path), artifact);
  EXPECT_EQ(reg.counter_value("schemes.artifact.loads"), 1u);
}

TEST(Instrumentation, CompileCounterCountsEveryCompile) {
  obs::ScopedRegistry scoped;
  auto& reg = scoped.registry();
  Rng rng(43);
  const Graph g = core::certified_random_graph(32, rng);
  for (const model::Model& m : model::Model::all()) {
    (void)schemes::compile(g, m);
  }
  EXPECT_EQ(reg.counter_value("schemes.compiled"),
            model::Model::all().size());
}

TEST(Instrumentation, VerifierCountersMatchResult) {
  graph::DistanceCache::global().clear();
  obs::ScopedRegistry scoped;
  auto& reg = scoped.registry();

  Rng rng(42);
  const Graph g = core::certified_random_graph(40, rng);
  const schemes::CompactDiam2Scheme scheme(g, {});
  const auto result = model::verify_scheme(g, scheme, 0, 4);
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(reg.counter_value("model.verifier.pairs_checked"),
            result.pairs_checked);
  EXPECT_EQ(reg.counter_value("model.verifier.runs"), 1u);
  // The verifier shards by source node, one accumulator per source.
  EXPECT_EQ(reg.counter_value("model.verifier.shards_merged"),
            g.node_count());

  const obs::HistogramSnapshot route_edges =
      reg.histogram_value("model.verifier.source_route_edges");
  EXPECT_EQ(route_edges.count(), g.node_count());
  EXPECT_EQ(route_edges.sum, result.total_route_edges);
}

TEST(Instrumentation, SweepCountersMatchGrid) {
  obs::ScopedRegistry scoped;
  auto& reg = scoped.registry();
  const auto points = core::sweep_certified(
      {16, 24}, /*seeds=*/3,
      [](const Graph& g) { return static_cast<double>(g.edge_count()); },
      core::SweepOptions{.base_seed = 3, .threads = 2});
  ASSERT_EQ(points.size(), 6u);
  EXPECT_EQ(reg.counter_value("core.sweep.points"), 6u);
  // Every point draws at least one candidate graph; rejects are the rest.
  EXPECT_EQ(reg.counter_value("core.certified_graph.attempts"),
            6u + reg.counter_value("core.certified_graph.rejects"));
}

// --- Pinned stats-JSON schema ------------------------------------------------

// The canonical SimulationStats rendering shared by `optrt_cli simulate`
// and bench_failures. Key order and formatting are part of the contract:
// downstream row-joining scripts parse both outputs interchangeably.
TEST(StatsJsonSchema, ExactFieldOrderAndFormatting) {
  net::SimulationStats stats;
  stats.sent = 100;
  stats.delivered = 98;
  stats.dropped = 2;
  stats.total_hops = 147;
  stats.makespan = 12;
  stats.max_link_load = 9;
  stats.total_retries = 5;
  stats.deflections = 3;
  stats.fallback_messages = 1;
  stats.shortest_hops = 98;
  EXPECT_EQ(net::stats_json(stats),
            "{\"sent\":100,\"delivered\":98,\"dropped\":2,"
            "\"delivery_rate\":0.98,\"mean_hops\":1.5,"
            "\"mean_stretch\":1.5,\"total_hops\":147,\"makespan\":12,"
            "\"max_link_load\":9,\"retries\":5,\"deflections\":3,"
            "\"fallbacks\":1}");
}

TEST(StatsJsonSchema, DefaultStatsRenderZeros) {
  // Nothing measured: stretch is null, not 0.
  EXPECT_EQ(net::stats_json(net::SimulationStats{}),
            "{\"sent\":0,\"delivered\":0,\"dropped\":0,"
            "\"delivery_rate\":1,\"mean_hops\":0,"
            "\"mean_stretch\":null,\"total_hops\":0,\"makespan\":0,"
            "\"max_link_load\":0,\"retries\":0,\"deflections\":0,"
            "\"fallbacks\":0}");
}

TEST(StatsJsonSchema, SimulateWritesStretchOnlyWhenMeasured) {
  // Hub routing detours through the hub, so the measured ratio is > 1.
  Rng rng(41);
  const Graph g = core::certified_random_graph(40, rng);
  const schemes::HubScheme scheme(g);
  for (const bool measure : {false, true}) {
    SCOPED_TRACE(measure ? "measure_stretch on" : "measure_stretch off");
    net::SimulatorConfig config;
    config.measure_stretch = measure;
    net::Simulator sim(g, scheme, config);
    for (graph::NodeId u = 2; u < 40; ++u) sim.send(1, u, 0);
    const net::SimulationStats stats = sim.run();
    ASSERT_EQ(stats.delivered, 38u);
    const obs::JsonValue block = obs::parse_json(net::stats_json(stats));
    const obs::JsonValue* stretch = block.find("mean_stretch");
    ASSERT_NE(stretch, nullptr);
    if (!measure) {
      EXPECT_EQ(stretch->kind, obs::JsonValue::Kind::kNull);
      continue;
    }
    ASSERT_GT(stats.shortest_hops, 0u);
    EXPECT_EQ(stretch->as_double(),
              static_cast<double>(stats.total_hops) /
                  static_cast<double>(stats.shortest_hops));
    EXPECT_GT(stretch->as_double(), 1.0);
  }
}

}  // namespace
}  // namespace optrt
