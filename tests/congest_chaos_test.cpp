// Construction chaos: the three CONGEST protocols under seeded fault
// plans striking mid-flood. The contract mirrors the serving chaos
// harness (tests/serve_chaos_test.cpp): for every (generator, count,
// repair, seed) cell the run must either converge to a scheme the
// verifier certifies or report a typed ConstructStatus — never crash,
// never hang (the engine's budgets convert stalls into kStalled), and
// every cell is bit-replayable from its parameters alone, at any thread
// count.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/optrt.hpp"
#include "net/congest.hpp"
#include "net/construction.hpp"
#include "schemes/landmark_table.hpp"

namespace optrt {
namespace {

using graph::Graph;
using graph::NodeId;
using graph::TopologyFamily;

constexpr std::size_t kN = 32;
constexpr std::uint64_t kSeeds = 6;

Graph connected_member(const TopologyFamily& family, std::uint64_t base) {
  for (std::uint64_t seed = base;; ++seed) {
    Graph g = family.make(kN, seed);
    if (graph::is_connected(g)) return g;
  }
}

struct Cell {
  net::FaultModel model;
  std::size_t count;
  std::uint64_t repair_after;
  std::uint64_t seed;
};

std::vector<Cell> sweep() {
  std::vector<Cell> cells;
  for (const auto model : {net::FaultModel::kUniform, net::FaultModel::kTargeted,
                           net::FaultModel::kPartition}) {
    for (const std::size_t count : {std::size_t{1}, std::size_t{3}}) {
      for (const std::uint64_t repair : {std::uint64_t{0}, std::uint64_t{2}}) {
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
          cells.push_back({model, count, repair, seed});
        }
      }
    }
  }
  return cells;
}

net::FaultPlan plan_for(const Graph& g, const Cell& cell,
                        std::uint64_t fail_time) {
  net::FaultOptions opt;
  opt.seed = cell.seed;
  opt.fail_time = fail_time;
  opt.repair_after = cell.repair_after;
  return net::make_fault_plan(g, cell.model, cell.count, opt);
}

/// Folds one cell's (status, rounds, messages, dropped) into `digest`.
/// Each test pins the digest of all its cells, so a change to how fault
/// events reach the engine cannot move any outcome unnoticed.
template <class Result>
void fold(std::uint64_t& digest, const Result& r) {
  for (const std::uint64_t x :
       {static_cast<std::uint64_t>(r.status), std::uint64_t{r.rounds},
        std::uint64_t{r.messages}, std::uint64_t{r.dropped}}) {
    digest = core::mix64(digest ^ x);
  }
}

std::string trace(const Cell& cell) {
  return std::string(net::to_string(cell.model)) + " count=" +
         std::to_string(cell.count) + " repair=" +
         std::to_string(cell.repair_after) + " seed=" +
         std::to_string(cell.seed);
}

// --- Compact: one-shot exchange, so any surviving drop is typed -----------

TEST(CongestChaos, CompactConvergesOrReportsTyped) {
  const Graph g = TopologyFamily::uniform().make(kN, 404);
  std::uint64_t digest = 0;
  for (const Cell& cell : sweep()) {
    SCOPED_TRACE(trace(cell));
    const auto plan = plan_for(g, cell, 1);
    const auto built =
        net::distributed_compact_construction(g, {}, {.faults = &plan});
    const auto again =
        net::distributed_compact_construction(g, {}, {.faults = &plan,
                                                      .threads = 8});
    EXPECT_EQ(built.status, again.status);
    EXPECT_EQ(built.node_tables, again.node_tables);
    EXPECT_EQ(built.dropped, again.dropped);
    fold(digest, built);
    if (built.status != net::ConstructStatus::kOk) continue;
    // Converged: tables must be the centralized ones, stretch exactly 1.
    const schemes::CompactDiam2Scheme scheme(
        g, {}, std::vector<bitio::BitVector>(built.node_tables));
    const auto verdict = model::verify_scheme(g, scheme);
    EXPECT_TRUE(verdict.ok());
    EXPECT_EQ(verdict.max_stretch, 1.0);
  }
  EXPECT_EQ(digest, 15159235757714778332ULL);
}

// --- Full table: mid-flood faults, audited distance vectors ---------------

TEST(CongestChaos, FullTableConvergesOrReportsTyped) {
  const Graph g = connected_member(TopologyFamily::grid(), 1);
  std::uint64_t digest = 0;
  for (const Cell& cell : sweep()) {
    SCOPED_TRACE(trace(cell));
    const auto plan = plan_for(g, cell, 3);  // strikes mid-flood
    const auto built =
        net::distributed_full_table_construction(g, {.faults = &plan});
    const auto again = net::distributed_full_table_construction(
        g, {.faults = &plan, .threads = 8});
    EXPECT_EQ(built.status, again.status);
    EXPECT_EQ(built.node_tables, again.node_tables);
    EXPECT_EQ(built.rounds, again.rounds);
    fold(digest, built);
    if (built.status != net::ConstructStatus::kOk) continue;
    const schemes::FullTableScheme scheme(
        g, graph::PortAssignment::sorted(g),
        graph::Labeling::identity(g.node_count()), model::kIAalpha,
        std::vector<bitio::BitVector>(built.node_tables));
    const auto verdict = model::verify_scheme(g, scheme);
    EXPECT_TRUE(verdict.ok());
    EXPECT_EQ(verdict.max_stretch, 1.0);
  }
  EXPECT_EQ(digest, 11312086630283420657ULL);
}

// --- TZ: faults across election, floods, and announcements ---------------

TEST(CongestChaos, TzConvergesOrReportsTyped) {
  std::uint64_t digest = 0;
  for (const auto& family :
       {TopologyFamily::power_law(2), TopologyFamily::grid()}) {
    const Graph g = connected_member(family, 406);
    for (const Cell& cell : sweep()) {
      SCOPED_TRACE(family.name() + " " + trace(cell));
      const auto plan = plan_for(g, cell, 4);
      schemes::TzOptions opt;
      opt.seed = 17;
      const auto built =
          net::distributed_tz_construction(g, opt, {.faults = &plan});
      const auto again = net::distributed_tz_construction(
          g, opt, {.faults = &plan, .threads = 8});
      EXPECT_EQ(built.status, again.status);
      EXPECT_EQ(built.rounds, again.rounds);
      EXPECT_EQ(built.dropped, again.dropped);
      fold(digest, built);
      if (built.status != net::ConstructStatus::kOk) {
        EXPECT_EQ(built.scheme, nullptr);
        EXPECT_FALSE(std::string(to_string(built.status)).empty());
        continue;
      }
      // Converged under faults: the audit accepted, so the scheme must
      // certify at the paper's bound, and every label exit port learned
      // in-network must be the landmark BFS's.
      ASSERT_NE(built.scheme, nullptr);
      ASSERT_NE(again.scheme, nullptr);
      for (NodeId u = 0; u < g.node_count(); ++u) {
        EXPECT_EQ(built.scheme->function_bits(u), again.scheme->function_bits(u));
      }
      EXPECT_TRUE(model::verify_scheme_stretch(g, *built.scheme, 3.0).ok());
      const auto nearest =
          schemes::nearest_landmarks(g, built.scheme->landmarks());
      EXPECT_EQ(built.exit_ports, nearest.exit_port);
    }
  }
  EXPECT_EQ(digest, 12928839595046683238ULL);
}

// --- TZ exit ports: a lost registration is a typed failure ----------------

// One transient link fault during the registration flood: the audit and
// the stretch check both pass (the decoder derives exit ports from its own
// landmark BFS), but l(v) never learned v's exit port, or learned it from
// a non-least successor whose copy survived the least one's.
TEST(CongestChaos, TzExitPortLostToAFaultIsNotOk) {
  struct ExitCell {
    TopologyFamily family;
    std::uint64_t seed;
    std::uint64_t fail_time;
    std::uint64_t repair_after;
    net::ConstructStatus status;
    NodeId dest;  ///< the least destination whose learned port is off
    graph::PortId learned;  ///< what l(dest) learned (0: nothing)
    graph::PortId label;    ///< the exit port l(dest) should have learned
  };
  const std::vector<ExitCell> cells = {
      {TopologyFamily::power_law(2), 1, 18, 3,
       net::ConstructStatus::kIncompleteInfo, 5, 0, 3},
      {TopologyFamily::power_law(2), 5, 19, 2,
       net::ConstructStatus::kInconsistent, 24, 4, 1},
      {TopologyFamily::grid(), 8, 32, 3, net::ConstructStatus::kInconsistent,
       23, 3, 2},
  };
  std::uint64_t digest = 0;
  for (const ExitCell& cell : cells) {
    SCOPED_TRACE(cell.family.name() + " seed=" + std::to_string(cell.seed) +
                 " fail=" + std::to_string(cell.fail_time) +
                 " repair=" + std::to_string(cell.repair_after));
    const Graph g = connected_member(cell.family, 406);
    net::FaultOptions fault;
    fault.seed = cell.seed;
    fault.fail_time = cell.fail_time;
    fault.repair_after = cell.repair_after;
    const auto plan =
        net::make_fault_plan(g, net::FaultModel::kUniform, 1, fault);
    schemes::TzOptions opt;
    opt.seed = 17;
    const auto built =
        net::distributed_tz_construction(g, opt, {.faults = &plan});
    fold(digest, built);
    EXPECT_GT(built.dropped, 0u);
    EXPECT_EQ(built.status, cell.status) << built.detail;
    EXPECT_EQ(built.scheme, nullptr);
    EXPECT_EQ(built.detail.rfind("node " + std::to_string(cell.dest) + ": ", 0),
              0u)
        << built.detail;
    // The faults strike after the election, so the landmarks, and with
    // them the labels, are the fault-free build's.
    const schemes::TzScheme central(g, opt);
    EXPECT_EQ(built.exit_ports[cell.dest], cell.learned);
    EXPECT_EQ(central.exit_port(cell.dest), cell.label);
  }
  EXPECT_EQ(digest, 2059883853587207505ULL);
}

// --- Node failures: the harder adversary, same contract -------------------

TEST(CongestChaos, NodeFailuresNeverPassTheAudit) {
  const Graph g = connected_member(TopologyFamily::grid(), 1);
  std::uint64_t digest = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(seed);
    net::FaultOptions opt;
    opt.seed = seed;
    opt.fail_time = 2;  // permanent: the node stays dark through the audit
    const auto plan = net::uniform_node_faults(g, 1, opt);
    const auto full =
        net::distributed_full_table_construction(g, {.faults = &plan});
    EXPECT_NE(full.status, net::ConstructStatus::kOk);
    schemes::TzOptions tz_opt;
    tz_opt.seed = 17;
    const auto tz = net::distributed_tz_construction(g, tz_opt,
                                                     {.faults = &plan});
    EXPECT_NE(tz.status, net::ConstructStatus::kOk);
    fold(digest, full);
    fold(digest, tz);
  }
  EXPECT_EQ(digest, 4443231851789559114ULL);
}

}  // namespace
}  // namespace optrt
