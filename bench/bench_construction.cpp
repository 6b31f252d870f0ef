// Construction-cost sweep: the three CONGEST protocols of
// net/construction.cpp across TopologyFamily specs — the axis the source
// paper ignores (it assumes a central strategy writes every table) and
// Elkin-Neiman open up: how many rounds, messages, and bits does it take
// to assemble the tables in-network?
//
// Per (family, n, protocol) row the runtime's measured counters are put
// next to the closed forms of net/construction.hpp, and `verified` reads
// every comparison:
//   · compact: rounds ≤ 1 and message bits = Σ d(v)²·⌈log₂ n⌉;
//   · tz: each phase's rounds against its form — tree 3·ecc(0) + 2, flood
//     max_l ecc(l) + 1, announce and register the handoff radius
//     max_v d(v, A), audit 1 — and the total against `rounds_bound`, their
//     sum plus, for every vetoed attempt (one tz.veto row each), a flood,
//     an announcement and a veto flood of at most D + 1, D and D + 1
//     rounds on a diameter-D network;
//   · full-table: rounds ≤ diameter + 2 and message bits = the flood's
//     n·2|E|·I plus the audit's Σ_u d(u)·(W + n·(I + W)).
// Every produced scheme is certified (verify_scheme for the stretch-1
// protocols, verify_scheme_stretch bound 3 for TZ) before its row is
// emitted, and the whole JSON is bit-identical at any --threads.
//
// Emits BENCH_construction.json (schema optrt.bench_construction.v2):
//
//   {"schema":"optrt.bench_construction.v2","seed":…,"sizes":[…],
//    "rows":[{"family":…, "n":…, "protocol":"compact|tz|full-table",
//             "applies":true, "status":"ok", "rounds":…, "messages":…,
//             "message_bits":…, "dropped":0, "table_bits":…,
//             "rounds_bound":…, "bits_predicted":…, "verified":true,
//             … per-protocol extras …}, …],
//    "metrics":{…}}
//
// TZ extras: "landmarks", "handoff_radius", "vetoed_attempts", and
// "<phase>_rounds" beside "<phase>_bound" for tree, flood, announce,
// register and audit.
//
//   bench_construction [--seed 1996] [--smoke] [--threads N]
//                      [-o BENCH_construction.json]
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/optrt.hpp"
#include "net/congest.hpp"
#include "net/construction.hpp"

namespace {

using namespace optrt;
using graph::NodeId;

struct Config {
  std::uint64_t seed = 1996;  // PODC'96
  std::vector<std::size_t> sizes = {64, 128, 256};
  std::string out_path = "BENCH_construction.json";
};

struct Row {
  std::string family;
  std::size_t n = 0;
  std::string protocol;
  bool applies = false;
  std::string status = "inapplicable";
  std::size_t rounds = 0;
  std::size_t messages = 0;
  std::uint64_t message_bits = 0;
  std::size_t dropped = 0;
  std::uint64_t table_bits = 0;
  std::size_t rounds_bound = 0;
  std::uint64_t bits_predicted = 0;
  bool verified = false;
  // TZ extras (zero elsewhere).
  std::size_t landmarks = 0;
  std::size_t handoff_radius = 0;
  std::size_t vetoed_attempts = 0;
  struct Phase {
    const char* name;
    std::size_t rounds;
    std::size_t bound;
  };
  std::vector<Phase> phases{};
};

std::uint64_t bits_of(const std::vector<bitio::BitVector>& tables) {
  std::uint64_t total = 0;
  for (const auto& t : tables) total += t.size();
  return total;
}

Row run_compact(const std::string& family, const graph::Graph& g) {
  Row row{family, g.node_count(), "compact"};
  try {
    const auto built = net::distributed_compact_construction(g);
    row.applies = true;
    row.status = to_string(built.status);
    row.rounds = built.rounds;
    row.messages = built.messages;
    row.message_bits = built.message_bits;
    row.dropped = built.dropped;
    row.table_bits = bits_of(built.node_tables);
    row.rounds_bound = 1;
    const unsigned id_width = bitio::ceil_log2(g.node_count());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      row.bits_predicted +=
          std::uint64_t{g.degree(v)} * g.degree(v) * id_width;
    }
    const schemes::CompactDiam2Scheme scheme(
        g, {}, std::vector<bitio::BitVector>(built.node_tables));
    const auto verdict = model::verify_scheme(g, scheme);
    row.verified = row.rounds <= row.rounds_bound &&
                   row.message_bits == row.bits_predicted && verdict.ok() &&
                   verdict.max_stretch == 1.0;
  } catch (const schemes::SchemeInapplicable&) {
  }
  return row;
}

Row run_tz(const std::string& family, const graph::Graph& g,
           std::uint64_t seed) {
  Row row{family, g.node_count(), "tz"};
  try {
    schemes::TzOptions opt;
    opt.seed = seed;
    const auto built = net::distributed_tz_construction(g, opt);
    row.applies = true;
    row.status = to_string(built.status);
    if (built.status != net::ConstructStatus::kOk) return row;
    row.rounds = built.rounds;
    row.messages = built.messages;
    row.message_bits = built.message_bits;
    row.dropped = built.dropped;
    row.landmarks = built.landmark_count;
    for (NodeId u = 0; u < g.node_count(); ++u) {
      row.table_bits += built.scheme->function_bits(u).size();
    }
    const auto dist = graph::DistanceCache::global().get(g);
    std::size_t ecc0 = 0;
    std::size_t max_ecc = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      ecc0 = std::max<std::size_t>(ecc0, dist->at(0, v));
      std::uint32_t dva = graph::kUnreachable;
      for (const NodeId l : built.scheme->landmarks()) {
        max_ecc = std::max<std::size_t>(max_ecc, dist->at(l, v));
        dva = std::min(dva, dist->at(l, v));
      }
      row.handoff_radius = std::max<std::size_t>(row.handoff_radius, dva);
    }
    row.phases = {
        {"tree", built.tree_rounds, 3 * ecc0 + 2},
        {"flood", built.flood_rounds, max_ecc + 1},
        {"announce", built.announce_rounds, row.handoff_radius},
        {"register", built.register_rounds, row.handoff_radius},
        {"audit", built.audit_rounds, 1},
    };
    for (const auto& phase : built.phase_stats) {
      if (phase.label.rfind("tz.veto", 0) == 0) ++row.vetoed_attempts;
    }
    const std::size_t diameter = dist->diameter();
    row.rounds_bound = row.vetoed_attempts * (3 * diameter + 2);
    row.verified = true;
    for (const Row::Phase& phase : row.phases) {
      row.rounds_bound += phase.bound;
      row.verified = row.verified && phase.rounds <= phase.bound;
    }
    row.verified = row.verified && row.rounds <= row.rounds_bound &&
                   model::verify_scheme_stretch(g, *built.scheme, 3.0).ok();
  } catch (const schemes::SchemeInapplicable&) {
  }
  return row;
}

Row run_full_table(const std::string& family, const graph::Graph& g) {
  Row row{family, g.node_count(), "full-table"};
  const auto built = net::distributed_full_table_construction(g);
  row.applies = true;
  row.status = to_string(built.status);
  if (built.status != net::ConstructStatus::kOk) return row;
  row.rounds = built.rounds;
  row.messages = built.messages;
  row.message_bits = built.message_bits;
  row.dropped = built.dropped;
  row.table_bits = bits_of(built.node_tables);
  const auto dist = graph::DistanceCache::global().get(g);
  row.rounds_bound = dist->diameter() + 2;  // flood + drain + audit
  const std::uint64_t n = g.node_count();
  const unsigned id_width = bitio::ceil_log2(n);
  const unsigned cnt_width = bitio::ceil_log2_plus1(n);
  row.bits_predicted = n * 2 * g.edge_count() * id_width;  // the floods
  for (NodeId u = 0; u < n; ++u) {  // the audit's distance vectors
    row.bits_predicted +=
        std::uint64_t{g.degree(u)} * (cnt_width + n * (id_width + cnt_width));
  }
  const schemes::FullTableScheme scheme(
      g, graph::PortAssignment::sorted(g),
      graph::Labeling::identity(g.node_count()), model::kIAalpha,
      std::vector<bitio::BitVector>(built.node_tables));
  const auto verdict = model::verify_scheme(g, scheme);
  row.verified = row.rounds <= row.rounds_bound &&
                 row.message_bits == row.bits_predicted && verdict.ok() &&
                 verdict.max_stretch == 1.0;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  core::apply_threads_flag(argc, argv);
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
      // CI mode: small sizes — checks protocol wiring, the analytic
      // bounds, and the JSON schema, not asymptotics.
      cfg.sizes = {24, 48};
    } else if (a == "-o" || a == "--output") {
      cfg.out_path = next();
    } else {
      std::cerr << "unknown flag " << a << "\n";
      return 2;
    }
  }

  const std::vector<graph::TopologyFamily> families = {
      graph::TopologyFamily::uniform(),
      graph::TopologyFamily::power_law(2),
      graph::TopologyFamily::grid(),
      graph::TopologyFamily::ring(),
  };

  std::vector<Row> rows;
  bool all_ok = true;
  for (const auto& family : families) {
    const std::string fname = family.name();
    for (std::size_t idx = 0; idx < cfg.sizes.size(); ++idx) {
      const std::size_t n = cfg.sizes[idx];
      const graph::Graph g = family.make(n, core::point_seed(cfg.seed, idx, 1));
      if (!graph::is_connected(g)) continue;  // protocol preconditions

      rows.push_back(run_compact(fname, g));
      rows.push_back(run_tz(fname, g, core::point_seed(cfg.seed, idx, 2)));
      // The oracle protocol's traffic is Θ(n·|E|); keep it to sizes where
      // the full differential already certifies it.
      if (n <= 128) rows.push_back(run_full_table(fname, g));

      for (std::size_t k = rows.size() - (n <= 128 ? 3 : 2); k < rows.size();
           ++k) {
        const Row& row = rows[k];
        if (row.applies) all_ok = all_ok && row.verified;
        std::cerr << fname << " n=" << row.n << " " << row.protocol << ": "
                  << (row.applies
                          ? row.status + " rounds=" +
                                std::to_string(row.rounds) + " messages=" +
                                std::to_string(row.messages) + " bits=" +
                                std::to_string(row.message_bits) +
                                (row.verified ? " verified" : " UNVERIFIED")
                          : std::string("inapplicable"))
                  << "\n";
      }
    }
  }

  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("optrt.bench_construction.v2");
  w.key("seed").value(cfg.seed);
  w.key("sizes").begin_array();
  for (std::size_t n : cfg.sizes) w.value(static_cast<std::uint64_t>(n));
  w.end_array();
  w.key("rows").begin_array();
  for (const Row& row : rows) {
    w.begin_object();
    w.key("family").value(row.family);
    w.key("n").value(static_cast<std::uint64_t>(row.n));
    w.key("protocol").value(row.protocol);
    w.key("applies").value(row.applies);
    if (row.applies) {
      w.key("status").value(row.status);
      w.key("rounds").value(static_cast<std::uint64_t>(row.rounds));
      w.key("messages").value(static_cast<std::uint64_t>(row.messages));
      w.key("message_bits").value(row.message_bits);
      w.key("dropped").value(static_cast<std::uint64_t>(row.dropped));
      w.key("table_bits").value(row.table_bits);
      w.key("rounds_bound").value(static_cast<std::uint64_t>(row.rounds_bound));
      if (row.bits_predicted > 0) {
        w.key("bits_predicted").value(row.bits_predicted);
      }
      if (row.protocol == "tz") {
        w.key("landmarks").value(static_cast<std::uint64_t>(row.landmarks));
        w.key("handoff_radius")
            .value(static_cast<std::uint64_t>(row.handoff_radius));
        w.key("vetoed_attempts")
            .value(static_cast<std::uint64_t>(row.vetoed_attempts));
        for (const Row::Phase& phase : row.phases) {
          w.key(std::string(phase.name) + "_rounds")
              .value(static_cast<std::uint64_t>(phase.rounds));
          w.key(std::string(phase.name) + "_bound")
              .value(static_cast<std::uint64_t>(phase.bound));
        }
      }
      w.key("verified").value(row.verified);
    }
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
  std::cerr << "bench_construction: wrote " << cfg.out_path << "\n";

  if (!all_ok) {
    std::cerr << "FAIL: a construction missed verification or its bound\n";
    return 1;
  }
  return 0;
}
