// Churn-repair cost sweep (ROADMAP item 5a): incremental table repair vs
// rebuild-from-scratch across topology families, under the same seeded
// churn plan, with the differential oracle certifying every quiesce
// point. The question the source paper's static model never asks — what
// does it cost to *keep* the tables optimal while the network changes —
// answered in deterministic work units (tables rebuilt + distance rows
// refreshed), never wall-clock, so every row is bit-identical across
// reruns and --threads values. Traffic stretch during convergence is
// measured too (mean_stretch in each row's simulator block). TZ and
// compact-diam2 repair by fresh build in both modes, so full-table's rows
// are the ones that compare the two.
//
// Emits BENCH_churn.json (schema optrt.bench_churn.v1):
//
//   {"schema":"optrt.bench_churn.v1","seed":…,"churn":"uniform:E,G,Q",
//    "rows":[{"family":…, "n":…, "scheme":…, "mode":"incremental|rebuild",
//             "status":"certified|stale", "events":…, "deltas":…,
//             "plan_fingerprint":…, "quiesce_points":…,
//             "quiesce_mismatches":0, "work":…, "tables_touched":…,
//             "dist_rows_bfs":…, "dist_rows_patched":…, "patched":…,
//             "rebuilt":…, "noops":…, "stale_sent":…,
//             … simulator stats block …}, …],
//    "metrics":{…}}
//
// Exit 1 if any quiesce check diverged, or if incremental repair failed
// to beat the rebuild baseline on total work for at least one family.
//
//   bench_churn [--seed 1996] [--smoke] [--threads N] [-o BENCH_churn.json]
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/optrt.hpp"
#include "net/churn.hpp"
#include "schemes/repair.hpp"

namespace {

using namespace optrt;

struct Config {
  std::uint64_t seed = 1996;  // PODC'96
  bool smoke = false;
  std::string out_path = "BENCH_churn.json";
};

struct Cell {
  std::string family;
  std::size_t n = 0;
  const char* kind = "";
  bool force_rebuild = false;
};

struct Row {
  Cell cell;
  net::ChurnReport report;
  std::uint64_t plan_fingerprint = 0;
};

/// First seed ≥ base whose family member is connected (deterministic).
graph::Graph connected_member(const graph::TopologyFamily& family,
                              std::size_t n, std::uint64_t base) {
  for (std::uint64_t seed = base;; ++seed) {
    graph::Graph g = family.make(n, seed);
    if (graph::is_connected(g)) return g;
  }
}

Row run_cell(const Cell& cell, const net::ChurnOptions& copt,
             std::uint64_t seed, std::size_t messages) {
  const graph::Graph g = connected_member(
      graph::TopologyFamily::parse(cell.family), cell.n, seed);
  const net::ChurnPlan plan = net::make_churn_plan(g, copt);

  auto rs = schemes::make_repairable(cell.kind, g, seed,
                                     {.force_rebuild = cell.force_rebuild});
  net::ChurnSessionConfig cfg;
  cfg.messages = messages;
  cfg.traffic_seed = seed;
  cfg.sim.measure_stretch = true;  // mean_stretch: route vs pre-fault path
  Row row{cell, net::run_churn_session(*rs, plan, cfg), plan.fingerprint()};
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t threads = core::apply_threads_flag(argc, argv);
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (++i >= argc) {
        std::cerr << "missing value after " << a << "\n";
        std::exit(2);
      }
      return argv[i];
    };
    if (a == "--seed") {
      cfg.seed = std::strtoull(next(), nullptr, 10);
    } else if (a == "--smoke") {
      cfg.smoke = true;  // CI mode: small graphs, short streams
    } else if (a == "-o" || a == "--output") {
      cfg.out_path = next();
    } else {
      std::cerr << "unknown flag " << a << "\n";
      return 2;
    }
  }

  // compact-diam2 only exists on the dense family; full-table and TZ run
  // on every family.
  struct FamilySpec {
    const char* family;
    std::size_t n;
    std::size_t smoke_n;
    std::vector<const char*> kinds;
  };
  const std::vector<FamilySpec> specs = {
      {"uniform", 96, 24, {"full-table", "compact-diam2", "tz"}},
      {"ba:2", 96, 24, {"full-table", "tz"}},
      {"grid", 64, 16, {"full-table", "tz"}},
      {"ring", 48, 12, {"full-table", "tz"}},
  };

  net::ChurnOptions copt;
  copt.seed = cfg.seed;
  copt.events = cfg.smoke ? 12 : 48;
  copt.mean_gap = 3;
  copt.quiesce_every = cfg.smoke ? 4 : 8;
  const std::size_t messages = cfg.smoke ? 32 : 256;

  std::vector<Cell> cells;
  for (const FamilySpec& spec : specs) {
    for (const char* kind : spec.kinds) {
      for (const bool force : {false, true}) {
        cells.push_back(
            {spec.family, cfg.smoke ? spec.smoke_n : spec.n, kind, force});
      }
    }
  }

  const std::vector<Row> rows =
      core::parallel_map<Row>(threads, cells.size(), [&](std::size_t idx) {
        return run_cell(cells[idx], copt, cfg.seed, messages);
      });

  bool mismatch = false;
  // (family, kind) → work in {incremental, rebuild} mode.
  std::map<std::pair<std::string, std::string>,
           std::pair<std::uint64_t, std::uint64_t>>
      work;
  for (const Row& row : rows) {
    mismatch = mismatch || row.report.quiesce_mismatches > 0;
    auto& w = work[{row.cell.family, row.cell.kind}];
    (row.cell.force_rebuild ? w.second : w.first) = row.report.repair.work();
    std::cerr << row.cell.family << " n=" << row.cell.n << " "
              << row.cell.kind
              << (row.cell.force_rebuild ? " rebuild" : " incremental")
              << ": status=" << net::to_string(row.report.status)
              << " work=" << row.report.repair.work()
              << " patched=" << row.report.repair.patched
              << " rebuilt=" << row.report.repair.rebuilt
              << " stale_sent=" << row.report.stale_sent << "\n";
  }

  std::size_t incremental_wins = 0;
  for (const auto& [key, w] : work) {
    if (w.first < w.second) ++incremental_wins;
  }

  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("optrt.bench_churn.v1");
  w.key("seed").value(cfg.seed);
  w.key("churn").value(copt.name());
  w.key("messages").value(static_cast<std::uint64_t>(messages));
  w.key("rows").begin_array();
  for (const Row& row : rows) {
    const net::ChurnReport& r = row.report;
    w.begin_object();
    w.key("family").value(row.cell.family);
    w.key("n").value(static_cast<std::uint64_t>(row.cell.n));
    w.key("scheme").value(row.cell.kind);
    w.key("mode").value(row.cell.force_rebuild ? "rebuild" : "incremental");
    w.key("status").value(net::to_string(r.status));
    w.key("events").value(static_cast<std::uint64_t>(r.events_applied));
    w.key("deltas").value(static_cast<std::uint64_t>(r.deltas_applied));
    w.key("plan_fingerprint").value(row.plan_fingerprint);
    w.key("quiesce_points").value(static_cast<std::uint64_t>(r.quiesce_points));
    w.key("quiesce_mismatches")
        .value(static_cast<std::uint64_t>(r.quiesce_mismatches));
    w.key("work").value(r.repair.work());
    w.key("tables_touched").value(r.repair.tables_touched);
    w.key("dist_rows_bfs").value(r.repair.dist_rows_bfs);
    w.key("dist_rows_patched").value(r.repair.dist_rows_patched);
    w.key("patched").value(r.repair.patched);
    w.key("rebuilt").value(r.repair.rebuilt);
    w.key("noops").value(r.repair.noops);
    w.key("stale_sent").value(static_cast<std::uint64_t>(r.stale_sent));
    net::write_stats_fields(w, r.traffic);
    w.end_object();
  }
  w.end_array();
  w.key("metrics").raw(obs::metrics_json(obs::MetricsRegistry::global()));
  w.end_object();

  std::ofstream out(cfg.out_path);
  if (!out) {
    std::cerr << "cannot write " << cfg.out_path << "\n";
    return 2;
  }
  out << w.str() << "\n";
  std::cerr << "bench_churn: wrote " << cfg.out_path << " (" << rows.size()
            << " rows, threads=" << threads << ")\n";

  if (mismatch) {
    std::cerr << "FAIL: a quiesce check diverged from the fresh build\n";
    return 1;
  }
  if (incremental_wins == 0) {
    std::cerr << "FAIL: incremental repair never beat the rebuild baseline\n";
    return 1;
  }
  std::cerr << "bench_churn: incremental repair beats full rebuild on "
            << incremental_wins << "/" << work.size()
            << " (family, scheme) cells; every quiesce point certified\n";
  return 0;
}
