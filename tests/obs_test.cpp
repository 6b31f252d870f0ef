// The observability subsystem's contract: registry semantics (counters,
// gauges, histograms), shard-merge determinism across thread counts, span
// nesting and trace serialization, and the golden metrics snapshot of a
// fixed-seed simulator run that CI holds bit-stable.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/parallel.hpp"
#include "graph/algorithms.hpp"
#include "model/verifier.hpp"
#include "net/faults.hpp"
#include "net/simulator.hpp"
#include "net/workload.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "schemes/compact_diam2.hpp"
#include "schemes/full_table.hpp"

namespace optrt {
namespace {

using graph::Graph;
using graph::Rng;

// --- Registry semantics ------------------------------------------------------

TEST(Metrics, CounterIncrementAndRead) {
  obs::ScopedRegistry scoped;
  auto& reg = scoped.registry();
  const obs::Counter c = reg.counter("c");
  EXPECT_EQ(reg.counter_value("c"), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(reg.counter_value("c"), 42u);
  // Re-registering the same name returns a handle on the same slots.
  reg.counter("c").inc(8);
  EXPECT_EQ(reg.counter_value("c"), 50u);
  // Unregistered names read as zero rather than erroring.
  EXPECT_EQ(reg.counter_value("never"), 0u);
}

TEST(Metrics, DefaultConstructedHandlesAreNoOps) {
  const obs::Counter c;
  const obs::Gauge g;
  const obs::Histogram h;
  c.inc();
  g.set(7);
  h.observe(7);  // must not crash; nothing to assert beyond survival
}

TEST(Metrics, KindMismatchThrows) {
  obs::ScopedRegistry scoped;
  auto& reg = scoped.registry();
  (void)reg.counter("m");
  EXPECT_THROW((void)reg.gauge("m"), std::logic_error);
  EXPECT_THROW((void)reg.histogram("m", {1, 2}), std::logic_error);
  (void)reg.histogram("h", {1, 2});
  EXPECT_THROW((void)reg.histogram("h", {1, 2, 3}), std::logic_error);
  (void)reg.histogram("h", {1, 2});  // identical bounds: fine
}

TEST(Metrics, GaugeMergesByMaximumAcrossThreads) {
  obs::ScopedRegistry scoped;
  auto& reg = scoped.registry();
  const obs::Gauge g = reg.gauge("peak");
  // A gauge set only on other threads must still be visible merged, and
  // the merged value is the max over per-thread shards.
  std::thread a([&] { g.set(5); });
  std::thread b([&] { g.set(9); });
  a.join();
  b.join();
  EXPECT_EQ(reg.gauge_value("peak"), 9);
  // This thread never set it; setting a smaller value does not win.
  g.set(3);
  EXPECT_EQ(reg.gauge_value("peak"), 9);
  // Negative values merge correctly too (max of set values, not of zero).
  const obs::Gauge n = reg.gauge("neg");
  n.set(-7);
  EXPECT_EQ(reg.gauge_value("neg"), -7);
  // A registered-but-never-set gauge reads as 0.
  (void)reg.gauge("unset");
  EXPECT_EQ(reg.gauge_value("unset"), 0);
}

TEST(Metrics, HistogramBucketsAreInclusiveUpperBounds) {
  obs::ScopedRegistry scoped;
  auto& reg = scoped.registry();
  const obs::Histogram h = reg.histogram("h", {2, 5, 10});
  for (const std::uint64_t v : {0u, 2u, 3u, 5u, 6u, 10u, 11u, 1000u}) {
    h.observe(v);
  }
  const obs::HistogramSnapshot snap = reg.histogram_value("h");
  ASSERT_EQ(snap.bounds, (std::vector<std::uint64_t>{2, 5, 10}));
  // v<=2: {0,2}; v<=5: {3,5}; v<=10: {6,10}; overflow: {11,1000}.
  ASSERT_EQ(snap.counts, (std::vector<std::uint64_t>{2, 2, 2, 2}));
  EXPECT_EQ(snap.sum, 0u + 2 + 3 + 5 + 6 + 10 + 11 + 1000);
  EXPECT_EQ(snap.count(), 8u);
}

TEST(Metrics, EmptyHistogramSnapshots) {
  obs::ScopedRegistry scoped;
  auto& reg = scoped.registry();
  (void)reg.histogram("h", {1, 2});
  const obs::HistogramSnapshot snap = reg.histogram_value("h");
  EXPECT_EQ(snap.counts, (std::vector<std::uint64_t>{0, 0, 0}));
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.count(), 0u);
  // Never-registered histograms read as fully empty.
  EXPECT_TRUE(reg.histogram_value("nope").counts.empty());
}

TEST(Metrics, ResetZeroesValuesButKeepsRegistrations) {
  obs::ScopedRegistry scoped;
  auto& reg = scoped.registry();
  const obs::Counter c = reg.counter("c");
  const obs::Gauge g = reg.gauge("g");
  c.inc(5);
  g.set(5);
  reg.reset();
  EXPECT_EQ(reg.counter_value("c"), 0u);
  EXPECT_EQ(reg.gauge_value("g"), 0);
  c.inc(2);  // outstanding handles stay usable
  EXPECT_EQ(reg.counter_value("c"), 2u);
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  ASSERT_EQ(snap.gauges.size(), 1u);
}

TEST(Metrics, ScopedRegistryOverridesAndRestoresGlobal) {
  obs::MetricsRegistry* before = &obs::MetricsRegistry::global();
  {
    obs::ScopedRegistry outer;
    EXPECT_EQ(&obs::MetricsRegistry::global(), &outer.registry());
    obs::counter("scoped.c").inc();
    EXPECT_EQ(outer.registry().counter_value("scoped.c"), 1u);
    {
      obs::ScopedRegistry inner;
      EXPECT_EQ(&obs::MetricsRegistry::global(), &inner.registry());
      EXPECT_EQ(inner.registry().counter_value("scoped.c"), 0u);
    }
    EXPECT_EQ(&obs::MetricsRegistry::global(), &outer.registry());
  }
  EXPECT_EQ(&obs::MetricsRegistry::global(), before);
  EXPECT_EQ(before->counter_value("scoped.c"), 0u);
}

TEST(Metrics, SnapshotIsNameSorted) {
  obs::ScopedRegistry scoped;
  auto& reg = scoped.registry();
  reg.counter("zebra").inc();
  reg.counter("alpha").inc();
  reg.counter("mid").inc();
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[1].first, "mid");
  EXPECT_EQ(snap.counters[2].first, "zebra");
}

// --- JSON rendering ----------------------------------------------------------

TEST(MetricsJson, ExactSmallDocument) {
  obs::ScopedRegistry scoped;
  auto& reg = scoped.registry();
  reg.counter("runs").inc(3);
  reg.gauge("peak").set(-2);
  reg.histogram("hops", {1, 4}).observe(2);
  EXPECT_EQ(obs::metrics_json(reg),
            "{\"schema\":\"optrt.metrics.v1\","
            "\"counters\":{\"runs\":3},"
            "\"gauges\":{\"peak\":-2},"
            "\"histograms\":{\"hops\":{\"bounds\":[1,4],\"counts\":[0,1,0],"
            "\"sum\":2,\"count\":1}}}");
  // wall_ns is appended only when requested — the one nondeterministic
  // field, and the reason fingerprints exclude it.
  EXPECT_EQ(obs::metrics_json(reg, 12345),
            "{\"schema\":\"optrt.metrics.v1\","
            "\"counters\":{\"runs\":3},"
            "\"gauges\":{\"peak\":-2},"
            "\"histograms\":{\"hops\":{\"bounds\":[1,4],\"counts\":[0,1,0],"
            "\"sum\":2,\"count\":1}},\"wall_ns\":12345}");
  EXPECT_EQ(obs::metrics_fingerprint(reg),
            obs::metrics_fingerprint(reg));
}

// --- Shard-merge determinism -------------------------------------------------

// The core contract: a parallel workload recording counters, gauges, and
// histograms from worker threads yields the identical JSON document at
// every thread count — shard merge is order-independent.
TEST(MetricsDeterminism, ParallelRecordingIsThreadCountIndependent) {
  std::vector<std::string> docs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    obs::ScopedRegistry scoped;
    core::ThreadPool pool(threads);
    (void)core::parallel_map<int>(pool, 512, [](std::size_t idx) {
      obs::counter("t.items").inc();
      obs::counter("t.weight").inc(idx);
      obs::histogram("t.idx", {63, 127, 255}).observe(idx);
      obs::gauge("t.flag").set(42);  // same value on every thread
      return 0;
    });
    docs.push_back(obs::metrics_json(scoped.registry()));
  }
  ASSERT_EQ(docs.size(), 3u);
  EXPECT_EQ(docs[0], docs[1]);
  EXPECT_EQ(docs[0], docs[2]);
  // Sanity: the merged totals are the arithmetic truth, not just equal.
  const obs::JsonValue doc = obs::parse_json(docs[0]);
  const obs::JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("t.items")->uint_value, 512u);
  EXPECT_EQ(counters->find("t.weight")->uint_value, 512u * 511u / 2);
}

TEST(MetricsDeterminism, VerifierFingerprintIsThreadCountIndependent) {
  Rng rng(11);
  const Graph g = core::certified_random_graph(48, rng);
  const auto scheme = schemes::FullTableScheme::standard(g);
  std::array<std::uint64_t, 3> fps{};
  std::size_t i = 0;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    graph::DistanceCache::global().clear();
    obs::ScopedRegistry scoped;
    const auto result = model::verify_scheme(g, scheme, 0, threads);
    ASSERT_TRUE(result.ok());
    fps[i++] = obs::metrics_fingerprint(scoped.registry());
  }
  EXPECT_EQ(fps[0], fps[1]);
  EXPECT_EQ(fps[0], fps[2]);
}

// --- Tracing -----------------------------------------------------------------

TEST(Trace, NoTraceInstalledMeansNoOpSpans) {
  ASSERT_EQ(obs::current_trace(), nullptr);
  { obs::TraceSpan span("ignored"); }
  // Nothing observable: the assertion is that nothing crashed with no
  // trace installed (the common production state).
}

TEST(Trace, SpanNestingDepthsAndSummary) {
  obs::Trace trace;
  {
    obs::TraceScope scope(trace);
    ASSERT_EQ(obs::current_trace(), &trace);
    obs::TraceSpan outer("outer");
    { obs::TraceSpan inner("inner"); }
    { obs::TraceSpan inner2("inner"); }
  }
  EXPECT_EQ(obs::current_trace(), nullptr);
  EXPECT_EQ(trace.event_count(), 3u);

  std::size_t outer_count = 0;
  for (const obs::Trace::Event& e : trace.events()) {
    if (e.name == "outer") {
      ++outer_count;
      EXPECT_EQ(e.depth, 0u);
    } else {
      EXPECT_EQ(e.name, "inner");
      EXPECT_EQ(e.depth, 1u);
    }
  }
  EXPECT_EQ(outer_count, 1u);

  const auto rows = trace.summary();  // name-sorted
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "inner");
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_EQ(rows[1].name, "outer");
  EXPECT_EQ(rows[1].count, 1u);

  // Counts-only summary is deterministic and byte-stable.
  EXPECT_EQ(trace.summary_json(false),
            "{\"spans\":{\"inner\":{\"count\":2},\"outer\":{\"count\":1}}}");
  // With wall times the keys appear (values are nondeterministic).
  const obs::JsonValue timed = obs::parse_json(trace.summary_json(true));
  const obs::JsonValue* inner = timed.find("spans")->find("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_NE(inner->find("total_ns"), nullptr);
  EXPECT_NE(inner->find("max_ns"), nullptr);
}

TEST(Trace, ChromeJsonParsesBack) {
  obs::Trace trace;
  {
    obs::TraceScope scope(trace);
    obs::TraceSpan a("phase.a");
    { obs::TraceSpan b("phase.b"); }
  }
  const obs::JsonValue doc = obs::parse_json(trace.chrome_json());
  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, obs::JsonValue::Kind::kArray);
  ASSERT_EQ(events->array.size(), 2u);
  for (const obs::JsonValue& e : events->array) {
    EXPECT_EQ(e.find("ph")->string_value, "X");
    EXPECT_NE(e.find("name"), nullptr);
    EXPECT_NE(e.find("ts"), nullptr);
    EXPECT_NE(e.find("dur"), nullptr);
    EXPECT_NE(e.find("args")->find("depth"), nullptr);
  }
}

// --- Golden snapshot ---------------------------------------------------------

// A fixed-seed simulate run must produce this exact metrics document (no
// wall times are ever recorded in the registry, so the comparison is
// byte-for-byte). If an intentional instrumentation change lands, rerun
// and update the literal — the point is that *unintentional* changes and
// thread-count effects cannot slip through.
constexpr const char* kGoldenSimulateMetrics =
    "{\"schema\":\"optrt.metrics.v1\","
    "\"counters\":{"
    "\"core.certified_graph.attempts\":1,"
    "\"core.certified_graph.rejects\":0,"
    "\"graph.distance_cache.misses\":1,"
    "\"lookup.compiled\":1,"
    "\"lookup.compiled.compact_diam2\":1,"
    "\"sim.deflections\":0,"
    "\"sim.delivered\":266,"
    "\"sim.dropped\":34,"
    "\"sim.fallback_messages\":0,"
    "\"sim.fault_events\":20,"
    "\"sim.hops\":420,"
    "\"sim.retries\":136,"
    "\"sim.runs\":1,"
    "\"sim.runs.policy.retry\":1,"
    "\"sim.sent\":300},"
    "\"gauges\":{"
    "\"graph.distance_cache.size\":1,"
    "\"sim.queue_peak\":300},"
    "\"histograms\":{"
    "\"sim.delivered_hops\":{"
    "\"bounds\":[1,2,3,4,6,8,12,16,24,32,48,64,128,256,1024,65536],"
    "\"counts\":[120,146,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"
    "\"sum\":412,\"count\":266}}}";

TEST(ObsGolden, FixedSeedSimulateSnapshot) {
  graph::DistanceCache::global().clear();
  obs::ScopedRegistry scoped;

  Rng rng(4242);
  const Graph g = core::certified_random_graph(32, rng);
  const schemes::CompactDiam2Scheme scheme(g, {});

  const net::FaultPlan plan =
      net::uniform_link_faults(g, /*failures=*/20, {.seed = 9});
  net::SimulatorConfig config;
  config.measure_stretch = true;
  config.resilience.policy = net::ResiliencePolicy::kRetry;
  net::Simulator sim(g, scheme, config);
  sim.schedule(plan);
  Rng traffic_rng(77);
  for (const auto& [u, v] : net::uniform_random(32, 300, traffic_rng)) {
    sim.send(u, v);
  }
  (void)sim.run();

  EXPECT_EQ(obs::metrics_json(scoped.registry()), kGoldenSimulateMetrics);
}

}  // namespace
}  // namespace optrt
