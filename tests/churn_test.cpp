// Live-churn robustness (ROADMAP item 5a): churn-plan determinism and
// grammar, connectivity preservation, the incremental-repair differential
// oracle — after every quiesce point of a seeded churn stream the
// repaired scheme must equal a fresh centralized build, bit-identical
// tables for full-table/compact-diam2 and route-fingerprint-identical for
// TZ, at 1, 2, and 8 threads — plus staleness-window pins and the
// incremental-vs-force-rebuild work accounting bench_churn relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/optrt.hpp"
#include "net/churn.hpp"
#include "schemes/errors.hpp"
#include "schemes/repair.hpp"

namespace optrt {
namespace {

using graph::Graph;
using graph::NodeId;
using graph::TopologyFamily;

/// First seed ≥ base whose family member is connected (deterministic).
Graph connected_member(const TopologyFamily& family, std::size_t n,
                       std::uint64_t base) {
  for (std::uint64_t seed = base;; ++seed) {
    Graph g = family.make(n, seed);
    if (graph::is_connected(g)) return g;
  }
}

// --- Spec grammar ---------------------------------------------------------

TEST(ChurnOptions, ParsesTheSpecGrammar) {
  const net::ChurnOptions a = net::ChurnOptions::parse("uniform");
  EXPECT_EQ(a.model, net::FaultModel::kUniform);
  EXPECT_EQ(a.events, 32u);  // defaults untouched
  EXPECT_EQ(a.mean_gap, 4u);
  EXPECT_EQ(a.quiesce_every, 8u);

  const net::ChurnOptions b = net::ChurnOptions::parse("targeted:16");
  EXPECT_EQ(b.model, net::FaultModel::kTargeted);
  EXPECT_EQ(b.events, 16u);

  const net::ChurnOptions c = net::ChurnOptions::parse("partition:24,2,6");
  EXPECT_EQ(c.model, net::FaultModel::kPartition);
  EXPECT_EQ(c.events, 24u);
  EXPECT_EQ(c.mean_gap, 2u);
  EXPECT_EQ(c.quiesce_every, 6u);
  EXPECT_EQ(c.name(), "partition:24,2,6");

  const net::ChurnOptions d = net::ChurnOptions::parse("nodes:8,1");
  EXPECT_EQ(d.model, net::FaultModel::kNodes);
  EXPECT_EQ(d.mean_gap, 1u);

  // parse(name()) round-trips the spec-carried fields.
  const net::ChurnOptions e = net::ChurnOptions::parse(c.name());
  EXPECT_EQ(e.model, c.model);
  EXPECT_EQ(e.events, c.events);
  EXPECT_EQ(e.mean_gap, c.mean_gap);
  EXPECT_EQ(e.quiesce_every, c.quiesce_every);

  for (const char* bad :
       {"", "bogus", "uniform:", "uniform:0", "uniform:8,0", "uniform:8,2,0",
        "uniform:8,2,3,4", "uniform:x", "targeted:8,two"}) {
    EXPECT_THROW(net::ChurnOptions::parse(bad), std::invalid_argument)
        << "spec '" << bad << "' should not parse";
  }
}

// --- Plan generation ------------------------------------------------------

TEST(ChurnPlan, SameSeedSamePlanDifferentSeedDifferentPlan) {
  const Graph g = connected_member(TopologyFamily::uniform(), 24, 5);
  net::ChurnOptions opt;
  opt.seed = 7;
  opt.events = 32;
  const net::ChurnPlan a = net::make_churn_plan(g, opt);
  const net::ChurnPlan b = net::make_churn_plan(g, opt);
  EXPECT_EQ(a.plan, b.plan);
  EXPECT_EQ(a.quiesce_after, b.quiesce_after);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  opt.seed = 8;
  const net::ChurnPlan c = net::make_churn_plan(g, opt);
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(ChurnPlan, QuiesceIndicesEveryKthAndAlwaysTheLast) {
  const Graph g = connected_member(TopologyFamily::uniform(), 20, 3);
  net::ChurnOptions opt;
  opt.events = 10;
  opt.quiesce_every = 4;
  const net::ChurnPlan plan = net::make_churn_plan(g, opt);
  EXPECT_EQ(plan.plan.size(), 10u);
  EXPECT_EQ(plan.quiesce_after, (std::vector<std::size_t>{3, 7, 9}));
}

TEST(ChurnPlan, PreservesConnectivityUnderLinkChurn) {
  // Replay each model's plan through LiveTopology: with preservation on,
  // the live graph must stay connected after every single event.
  for (const net::FaultModel model :
       {net::FaultModel::kUniform, net::FaultModel::kTargeted,
        net::FaultModel::kPartition}) {
    const Graph g = connected_member(TopologyFamily::ring(), 16, 1);
    net::ChurnOptions opt;
    opt.model = model;
    opt.events = 24;
    opt.mean_gap = 1;
    const net::ChurnPlan plan = net::make_churn_plan(g, opt);
    net::LiveTopology live(g);
    std::size_t i = 0;
    for (const net::FaultEvent& e : plan.plan.events()) {
      live.apply(e);
      EXPECT_TRUE(graph::is_connected(live.live_graph()))
          << net::to_string(model) << " event " << i;
      ++i;
    }
  }
}

TEST(ChurnPlan, FingerprintsArePinned) {
  // Every churn model at two seeds, capped and uncapped: the constants pin
  // each plan's fail-preference order, repair picks and quiesce indices.
  const Graph g = connected_member(TopologyFamily::power_law(2), 40, 3);
  const net::FaultModel models[] = {
      net::FaultModel::kUniform, net::FaultModel::kTargeted,
      net::FaultModel::kPartition, net::FaultModel::kNodes};
  constexpr std::uint64_t kPinned[4][2][2] = {
      {{17997412641399017064ULL, 12745082222415336113ULL},
       {8210913830231155561ULL, 5312440463377488559ULL}},
      {{14231285061025103111ULL, 3111284845028732289ULL},
       {8823156408417918529ULL, 15552107254043360922ULL}},
      {{11992975566255531633ULL, 5972433309720283228ULL},
       {1786981174386993952ULL, 1635875350446213693ULL}},
      {{13166200020197789712ULL, 13627670305542792618ULL},
       {7439087825215989539ULL, 16675721203831477477ULL}},
  };
  for (std::size_t mi = 0; mi < 4; ++mi) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      for (const std::size_t max_down : {std::size_t{0}, std::size_t{3}}) {
        net::ChurnOptions opt;
        opt.seed = seed;
        opt.model = models[mi];
        opt.events = 40;
        opt.mean_gap = 3;
        opt.quiesce_every = 7;
        opt.max_down = max_down;
        EXPECT_EQ(net::make_churn_plan(g, opt).fingerprint(),
                  kPinned[mi][seed - 1][max_down == 0 ? 0 : 1])
            << net::to_string(models[mi]) << " seed " << seed
            << " max_down " << max_down;
      }
    }
  }
}

TEST(ChurnPlan, EventTimesAreStrictlyIncreasing) {
  const Graph g = connected_member(TopologyFamily::uniform(), 20, 2);
  net::ChurnOptions opt;
  opt.events = 40;
  opt.mean_gap = 3;
  const net::ChurnPlan plan = net::make_churn_plan(g, opt);
  std::uint64_t prev = 0;
  for (const net::FaultEvent& e : plan.plan.events()) {
    EXPECT_GT(e.time, prev);  // gaps are drawn from [1, 2·mean_gap]
    EXPECT_LE(e.time - prev, 2 * opt.mean_gap);
    prev = e.time;
  }
}

// --- The differential oracle (the tentpole's acceptance criterion) --------

struct OracleCase {
  const char* family;
  std::size_t n;
  const char* kind;
};

TEST(ChurnOracle, RepairedMatchesFreshAfterEveryQuiescePoint) {
  // Four topology families, all three repairable kinds where applicable,
  // at 1, 2, and 8 oracle threads: every quiesce point must certify and
  // the whole deterministic report must be thread-count invariant.
  const OracleCase cases[] = {
      {"uniform", 20, "full-table"},  {"uniform", 20, "compact-diam2"},
      {"uniform", 20, "tz"},          {"ba:2", 20, "full-table"},
      {"ba:2", 20, "tz"},             {"grid", 16, "full-table"},
      {"grid", 16, "tz"},             {"ring", 12, "full-table"},
      {"ring", 12, "tz"},
  };
  for (const OracleCase& c : cases) {
    SCOPED_TRACE(std::string(c.family) + "/" + c.kind);
    const Graph g =
        connected_member(TopologyFamily::parse(c.family), c.n, 11);
    net::ChurnOptions copt;
    copt.seed = 23;
    copt.events = 16;
    copt.mean_gap = 2;
    copt.quiesce_every = 4;
    const net::ChurnPlan plan = net::make_churn_plan(g, copt);

    std::vector<net::ChurnReport> reports;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      auto rs = schemes::make_repairable(c.kind, g, 9);
      net::ChurnSessionConfig cfg;
      cfg.threads = threads;
      cfg.messages = 32;
      const net::ChurnReport r = net::run_churn_session(*rs, plan, cfg);
      EXPECT_EQ(r.quiesce_mismatches, 0u)
          << "threads=" << threads << ": " << r.first_mismatch;
      EXPECT_NE(r.status, net::ChurnStatus::kMismatch);
      EXPECT_GE(r.quiesce_points, 4u);
      reports.push_back(r);
    }
    // Thread-count invariance of every deterministic field.
    for (std::size_t i = 1; i < reports.size(); ++i) {
      EXPECT_EQ(reports[i].traffic.delivered, reports[0].traffic.delivered);
      EXPECT_EQ(reports[i].traffic.total_hops, reports[0].traffic.total_hops);
      EXPECT_EQ(reports[i].stale_sent, reports[0].stale_sent);
      EXPECT_EQ(reports[i].deltas_applied, reports[0].deltas_applied);
      EXPECT_EQ(reports[i].repair.work(), reports[0].repair.work());
      EXPECT_EQ(reports[i].status, reports[0].status);
    }
  }
}

TEST(ChurnOracle, SingleEventRepairsAreExact) {
  // One fail then one repair of the same link, oracle after each — the
  // smallest possible churn stream, per repairable kind.
  const Graph g = connected_member(TopologyFamily::uniform(), 16, 3);
  for (const char* kind : {"full-table", "compact-diam2", "tz"}) {
    SCOPED_TRACE(kind);
    auto rs = schemes::make_repairable(kind, g, 5);
    // Pick a non-bridge edge deterministically: first edge whose removal
    // keeps the graph connected.
    const auto edges = net::edge_list(g);
    model::TopologyEvent down;
    for (const auto& [u, v] : edges) {
      Graph h(g.node_count());
      for (const auto& [a, b] : edges) {
        if (std::pair(a, b) != std::pair(u, v)) h.add_edge(a, b);
      }
      if (graph::is_connected(h)) {
        down = {u, v, false};
        break;
      }
    }
    // The oracle covers every outcome: a patched/rebuilt scheme must be
    // bit-identical (fingerprint-identical for TZ) to a fresh build, and
    // an inapplicable one must have fresh-build parity.
    rs->apply_event(down);
    schemes::RepairMatch m = schemes::repaired_matches_fresh(*rs);
    EXPECT_TRUE(m.match) << m.detail;

    const model::TopologyEvent up{down.u, down.v, true};
    rs->apply_event(up);
    EXPECT_TRUE(rs->available());  // the original topology is back
    m = schemes::repaired_matches_fresh(*rs);
    EXPECT_TRUE(m.match) << m.detail;
  }
}

// --- Staleness ------------------------------------------------------------

TEST(ChurnSession, RepairLagWidensTheStalenessWindow) {
  const Graph g = connected_member(TopologyFamily::uniform(), 20, 7);
  net::ChurnOptions copt;
  copt.events = 16;
  copt.mean_gap = 2;
  const net::ChurnPlan plan = net::make_churn_plan(g, copt);

  std::vector<std::size_t> stale;
  for (const std::uint64_t lag : {std::uint64_t{0}, std::uint64_t{8}}) {
    auto rs = schemes::make_repairable("full-table", g, 1);
    net::ChurnSessionConfig cfg;
    cfg.repair_lag = lag;
    cfg.messages = 200;
    cfg.verify_at_quiesce = false;
    const net::ChurnReport r = net::run_churn_session(*rs, plan, cfg);
    EXPECT_EQ(r.status, net::ChurnStatus::kUnverified);
    EXPECT_EQ(r.traffic.sent, 200u);  // every message resolves eventually
    stale.push_back(r.stale_sent);
  }
  EXPECT_GE(stale[1], stale[0]);
  EXPECT_GT(stale[1], 0u);  // a long lag must catch some traffic stale
}

TEST(ChurnSession, ReportIsDeterministicAcrossRuns) {
  const Graph g = connected_member(TopologyFamily::parse("ba:2"), 18, 2);
  net::ChurnOptions copt;
  copt.events = 12;
  const net::ChurnPlan plan = net::make_churn_plan(g, copt);
  net::ChurnSessionConfig cfg;
  cfg.messages = 64;
  auto run = [&] {
    auto rs = schemes::make_repairable("tz", g, 3);
    return net::run_churn_session(*rs, plan, cfg);
  };
  const net::ChurnReport a = run();
  const net::ChurnReport b = run();
  EXPECT_EQ(a.traffic.delivered, b.traffic.delivered);
  EXPECT_EQ(a.traffic.total_hops, b.traffic.total_hops);
  EXPECT_EQ(a.traffic.makespan, b.traffic.makespan);
  EXPECT_EQ(a.stale_sent, b.stale_sent);
  EXPECT_EQ(a.repair.work(), b.repair.work());
  EXPECT_EQ(a.quiesce_points, b.quiesce_points);
  EXPECT_EQ(a.status, b.status);
}

// --- Work accounting ------------------------------------------------------

TEST(ChurnWork, IncrementalBeatsForceRebuildOnSparseFamilies) {
  // The bench_churn acceptance claim, pinned as a test: on at least the
  // sparse families, the incremental repair stream does strictly less
  // total work (tables + distance rows) than rebuild-everything-always.
  for (const char* family : {"ba:2", "ring"}) {
    SCOPED_TRACE(family);
    const Graph g = connected_member(TopologyFamily::parse(family), 24, 4);
    net::ChurnOptions copt;
    copt.events = 24;
    copt.mean_gap = 2;
    const net::ChurnPlan plan = net::make_churn_plan(g, copt);

    std::vector<std::uint64_t> work;
    for (const bool force : {false, true}) {
      auto rs = schemes::make_repairable("full-table", g, 1,
                                         {.force_rebuild = force});
      net::ChurnSessionConfig cfg;
      cfg.messages = 16;
      const net::ChurnReport r = net::run_churn_session(*rs, plan, cfg);
      EXPECT_EQ(r.quiesce_mismatches, 0u) << r.first_mismatch;
      work.push_back(r.repair.work());
    }
    EXPECT_LT(work[0], work[1])
        << "incremental=" << work[0] << " force=" << work[1];
  }
}

TEST(ChurnWork, ForceRebuildCountsEveryEventAsRebuilt) {
  const Graph g = connected_member(TopologyFamily::uniform(), 16, 9);
  net::ChurnOptions copt;
  copt.events = 8;
  const net::ChurnPlan plan = net::make_churn_plan(g, copt);
  auto rs =
      schemes::make_repairable("full-table", g, 1, {.force_rebuild = true});
  const net::ChurnReport r = net::run_churn_session(*rs, plan, {});
  EXPECT_EQ(r.repair.rebuilt, r.repair.events);
  EXPECT_EQ(r.repair.patched, 0u);
  EXPECT_EQ(r.repair.noops, 0u);
}

TEST(ChurnWork, FullTableRepairsExactlyWhatChanged) {
  // Each event of a ba:2 churn stream against fresh matrices before and
  // after it: a delete BFSes exactly its candidate rows, the sources s
  // with |d(s,u) − d(s,v)| = 1; an insert patches exactly the rows that
  // change; and the tables re-encoded are {u, v} ∪ changed rows ∪ their
  // live neighbours. On ba:2 most rows are a delete's candidates while
  // few of them change, so listing a row that did not change shows.
  const Graph g = connected_member(TopologyFamily::parse("ba:2"), 48, 4);
  const std::size_t n = g.node_count();
  net::ChurnOptions copt;
  copt.seed = 5;
  copt.events = 48;
  copt.mean_gap = 2;
  const net::ChurnPlan plan = net::make_churn_plan(g, copt);
  auto rs = schemes::make_repairable("full-table", g, 1);
  net::LiveTopology live(g);
  std::size_t deletes = 0, inserts = 0, broad_deletes = 0;
  for (const net::FaultEvent& e : plan.plan.events()) {
    for (const model::TopologyEvent& d : live.apply(e)) {
      SCOPED_TRACE("event " + std::to_string(deletes + inserts));
      const graph::DistanceMatrix before(rs->topology());
      const model::RepairStats was = rs->stats();
      EXPECT_EQ(rs->apply_event(d), model::RepairOutcome::kPatched);
      const graph::DistanceMatrix after(rs->topology());
      std::uint64_t candidates = 0, changed = 0;
      std::vector<NodeId> dirty = {d.u, d.v};
      for (NodeId s = 0; s < n; ++s) {
        const std::uint32_t su = before.at(s, d.u);
        const std::uint32_t sv = before.at(s, d.v);
        if (su != graph::kUnreachable && sv != graph::kUnreachable &&
            (su + 1 == sv || sv + 1 == su)) {
          ++candidates;
        }
        const auto old_row = before.row(s);
        if (std::equal(old_row.begin(), old_row.end(), after.row(s).begin())) {
          continue;
        }
        ++changed;
        dirty.push_back(s);
        for (NodeId w : rs->topology().neighbors(s)) dirty.push_back(w);
      }
      std::sort(dirty.begin(), dirty.end());
      dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
      const model::RepairStats& now = rs->stats();
      EXPECT_EQ(now.dist_rows_bfs - was.dist_rows_bfs, d.up ? 0 : candidates);
      EXPECT_EQ(now.dist_rows_patched - was.dist_rows_patched,
                d.up ? changed : 0);
      EXPECT_EQ(now.tables_touched - was.tables_touched, dirty.size());
      ++(d.up ? inserts : deletes);
      if (!d.up && 2 * candidates > n) ++broad_deletes;
    }
  }
  EXPECT_GT(inserts, 0u);
  EXPECT_GT(broad_deletes, 0u);  // candidates in most rows
  EXPECT_EQ(rs->stats().patched, rs->stats().events);
  EXPECT_TRUE(schemes::repaired_matches_fresh(*rs).match);
}

/// Every deterministic field of a session report, for equality checks.
std::string report_fields(const net::ChurnReport& r) {
  const model::RepairStats& s = r.repair;
  obs::JsonWriter w;
  w.begin_object();
  net::write_stats_fields(w, r.traffic);
  w.key("repair").begin_array();
  for (const std::uint64_t x :
       {s.events, s.noops, s.patched, s.rebuilt, s.inapplicable,
        s.tables_touched, s.dist_rows_bfs, s.dist_rows_patched}) {
    w.value(x);
  }
  w.end_array();
  w.key("session").begin_array();
  for (const std::size_t x :
       {r.events_applied, r.deltas_applied, r.quiesce_points,
        r.quiesce_mismatches, r.stale_sent}) {
    w.value(std::uint64_t{x});
  }
  w.end_array();
  w.key("status").value(net::to_string(r.status));
  w.key("first_mismatch").value(r.first_mismatch);
  w.end_object();
  return w.str();
}

TEST(ChurnWork, RebuildKindsHaveOnePath) {
  // TZ and compact-diam2 repair by fresh build: every event is rebuilt or
  // inapplicable, each rebuild books n tables and no distance rows, and
  // force_rebuild leaves a session's report as it is. Node churn on the
  // dense family makes compact-diam2 inapplicable at times.
  for (const char* kind : {"tz", "compact-diam2"}) {
    SCOPED_TRACE(kind);
    const Graph g = connected_member(TopologyFamily::uniform(), 24, 6);
    net::ChurnOptions copt;
    copt.model = net::FaultModel::kNodes;
    copt.seed = 3;
    copt.events = 16;
    copt.mean_gap = 2;
    copt.quiesce_every = 2;
    const net::ChurnPlan plan = net::make_churn_plan(g, copt);

    auto rs = schemes::make_repairable(kind, g, 7);
    net::LiveTopology live(g);
    std::size_t inapplicable = 0;
    for (const net::FaultEvent& e : plan.plan.events()) {
      for (const model::TopologyEvent& d : live.apply(e)) {
        const model::RepairOutcome outcome = rs->apply_event(d);
        EXPECT_TRUE(outcome == model::RepairOutcome::kRebuilt ||
                    outcome == model::RepairOutcome::kInapplicable);
        if (outcome == model::RepairOutcome::kInapplicable) ++inapplicable;
        EXPECT_EQ(rs->available(), outcome == model::RepairOutcome::kRebuilt);
      }
    }
    const model::RepairStats& st = rs->stats();
    EXPECT_GT(st.events, 0u);
    EXPECT_EQ(st.rebuilt + st.inapplicable, st.events);
    EXPECT_EQ(st.inapplicable, inapplicable);
    EXPECT_EQ(st.tables_touched, st.rebuilt * g.node_count());
    EXPECT_EQ(st.dist_rows_bfs + st.dist_rows_patched, 0u);
    if (std::string(kind) == "compact-diam2") {
      EXPECT_GT(inapplicable, 0u);
    }

    std::vector<std::string> reports;
    for (const bool force : {false, true}) {
      auto session_rs =
          schemes::make_repairable(kind, g, 7, {.force_rebuild = force});
      net::ChurnSessionConfig cfg;
      cfg.messages = 64;
      reports.push_back(
          report_fields(net::run_churn_session(*session_rs, plan, cfg)));
    }
    EXPECT_EQ(reports[0], reports[1]);
  }
}

TEST(ChurnSession, SpansCountRepairsAndTzBuilds) {
  // One schemes.repair.apply_event span per effective delta, of either
  // repair path, and one schemes.landmark_tables.build span per TZ build:
  // the repairable's own, one per rebuilt event and one per quiesce
  // oracle's fresh build. Link churn keeps ba:2 connected, so no build
  // is inapplicable. The counts do not depend on the thread count.
  const Graph g = connected_member(TopologyFamily::power_law(2), 24, 31);
  net::ChurnOptions copt;
  copt.seed = 5;
  copt.events = 12;
  copt.mean_gap = 2;
  copt.quiesce_every = 4;
  const net::ChurnPlan plan = net::make_churn_plan(g, copt);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> per_threads;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE(threads);
    obs::Trace trace;
    net::ChurnReport tz;
    net::ChurnReport full;
    {
      const obs::TraceScope scope(trace);
      net::ChurnSessionConfig cfg;
      cfg.threads = threads;
      cfg.messages = 32;
      auto tz_rs = schemes::make_repairable("tz", g, 9);
      tz = net::run_churn_session(*tz_rs, plan, cfg);
      auto full_rs = schemes::make_repairable("full-table", g, 9);
      full = net::run_churn_session(*full_rs, plan, cfg);
    }
    ASSERT_EQ(tz.quiesce_mismatches, 0u) << tz.first_mismatch;
    ASSERT_EQ(full.quiesce_mismatches, 0u) << full.first_mismatch;
    ASSERT_GT(tz.deltas_applied, 0u);
    EXPECT_EQ(tz.repair.inapplicable, 0u);
    std::map<std::string, std::uint64_t> counts;
    for (const auto& row : trace.summary()) counts[row.name] = row.count;
    EXPECT_EQ(counts["schemes.repair.apply_event"],
              tz.deltas_applied + full.deltas_applied);
    EXPECT_EQ(counts["schemes.landmark_tables.build"],
              1 + tz.repair.rebuilt + tz.quiesce_points);
    per_threads.emplace_back(counts["schemes.repair.apply_event"],
                             counts["schemes.landmark_tables.build"]);
  }
  EXPECT_EQ(per_threads[0], per_threads[1]);
}

// --- Repairable surface edge cases ----------------------------------------

TEST(Repairable, UnknownKindThrows) {
  const Graph g = connected_member(TopologyFamily::uniform(), 12, 1);
  EXPECT_THROW(schemes::make_repairable("interval", g, 1),
               std::invalid_argument);
}

TEST(Repairable, CompactGoesStaleAndRecovers) {
  // Drive compact-diam2 through node churn until it reports inapplicable
  // at least once, then repair everything: it must recover, and the
  // oracle must hold at the end — incrementally and in the rebuild
  // baseline mode alike (a failed forced rebuild must go stale too).
  const Graph g = connected_member(TopologyFamily::uniform(), 14, 6);
  for (const bool force : {false, true}) {
    SCOPED_TRACE(force ? "force_rebuild" : "incremental");
    auto rs = schemes::make_repairable("compact-diam2", g, 1,
                                       {.force_rebuild = force});
    net::LiveTopology live(g);
    // Fail node 0 — losing a whole star is the quickest way to break the
    // diam-2 neighbour-domination condition.
    std::vector<model::TopologyEvent> deltas =
        live.apply({1, net::FaultKind::kNodeFail, 0, 0});
    std::size_t inapplicable = 0;
    for (const auto& d : deltas) {
      if (rs->apply_event(d) == model::RepairOutcome::kInapplicable) {
        ++inapplicable;
      }
    }
    EXPECT_GT(inapplicable, 0u);
    EXPECT_FALSE(rs->available());
    schemes::RepairMatch m = schemes::repaired_matches_fresh(*rs);
    EXPECT_TRUE(m.match) << m.detail;  // parity even when both inapplicable
    // Bring it back: available again and bit-identical to fresh.
    deltas = live.apply({2, net::FaultKind::kNodeRepair, 0, 0});
    for (const auto& d : deltas) rs->apply_event(d);
    EXPECT_TRUE(rs->available());
    m = schemes::repaired_matches_fresh(*rs);
    EXPECT_TRUE(m.match) << m.detail;
  }
}

}  // namespace
}  // namespace optrt
