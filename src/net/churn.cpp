#include "net/churn.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "core/parallel.hpp"
#include "graph/algorithms.hpp"
#include "obs/metrics.hpp"
#include "schemes/repair.hpp"

namespace optrt::net {

namespace {

/// The live graph with edge `skip` additionally removed.
graph::Graph live_minus(const std::vector<graph::Edge>& edges,
                        const std::vector<bool>& down, std::size_t n,
                        std::size_t skip) {
  std::vector<graph::Edge> live;
  live.reserve(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (!down[i] && i != skip) live.push_back(edges[i]);
  }
  return graph::Graph(n, live);
}

/// Merges a slice into the running totals: sums, except the high-water
/// fields (makespan, max_link_load) which take the maximum.
void accumulate(SimulationStats& into, const SimulationStats& slice) {
  into.sent += slice.sent;
  into.delivered += slice.delivered;
  into.dropped += slice.dropped;
  into.total_hops += slice.total_hops;
  into.makespan = std::max(into.makespan, slice.makespan);
  into.max_link_load = std::max(into.max_link_load, slice.max_link_load);
  into.total_retries += slice.total_retries;
  into.deflections += slice.deflections;
  into.fallback_messages += slice.fallback_messages;
  into.shortest_hops += slice.shortest_hops;
}

}  // namespace

std::string ChurnOptions::name() const {
  return std::string(to_string(model)) + ":" + std::to_string(events) + "," +
         std::to_string(mean_gap) + "," + std::to_string(quiesce_every);
}

ChurnOptions ChurnOptions::parse(const std::string& spec) {
  const auto bad = [&spec]() -> ChurnOptions {
    throw std::invalid_argument(
        "ChurnOptions::parse: bad spec '" + spec +
        "' (want <model>[:<events>[,<gap>[,<quiesce>]]] with model = "
        "uniform | targeted | partition | nodes)");
  };
  ChurnOptions opt;
  const auto colon = spec.find(':');
  const std::string head = spec.substr(0, colon);
  const auto model = parse_fault_model(head);
  if (!model) return bad();
  opt.model = *model;
  if (colon == std::string::npos) return opt;
  std::string rest = spec.substr(colon + 1);
  // events[,gap[,quiesce]] — all positive integers.
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (true) {
    const auto comma = rest.find(',', pos);
    parts.push_back(rest.substr(pos, comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (parts.empty() || parts.size() > 3) return bad();
  try {
    std::size_t used = 0;
    opt.events = std::stoul(parts[0], &used);
    if (used != parts[0].size() || opt.events == 0) return bad();
    if (parts.size() > 1) {
      opt.mean_gap = std::stoul(parts[1], &used);
      if (used != parts[1].size() || opt.mean_gap == 0) return bad();
    }
    if (parts.size() > 2) {
      opt.quiesce_every = std::stoul(parts[2], &used);
      if (used != parts[2].size() || opt.quiesce_every == 0) return bad();
    }
  } catch (const std::logic_error&) {
    return bad();
  }
  return opt;
}

std::uint64_t ChurnPlan::fingerprint() const noexcept {
  std::uint64_t h =
      core::mix64(plan.fingerprint() ^ (0x5ca1ab1eULL + quiesce_after.size()));
  for (std::size_t i : quiesce_after) h = core::mix64(h ^ i);
  return h;
}

ChurnPlan make_churn_plan(const graph::Graph& g, const ChurnOptions& opt) {
  if (opt.events == 0 || opt.mean_gap == 0 || opt.quiesce_every == 0) {
    throw std::invalid_argument(
        "make_churn_plan: events, mean_gap, and quiesce_every must be > 0");
  }
  const std::size_t n = g.node_count();
  const std::vector<std::pair<NodeId, NodeId>> edges = edge_list(g);
  const std::size_t population =
      opt.model == FaultModel::kNodes ? n : edges.size();
  const std::size_t cap =
      opt.max_down == 0 ? population : std::min(opt.max_down, population);

  ChurnPlan out;
  if (population == 0) return out;

  // The link models' fail order, on a stream of its own: a churn plan's
  // first fails follow the corresponding FaultPlan's order.
  const std::vector<std::size_t> pref =
      opt.model == FaultModel::kNodes
          ? std::vector<std::size_t>{}
          : fail_order(g, edges, opt.model,
                       core::mix64(opt.seed ^ 0x9a3c5e71u));
  std::vector<bool> down(population, false);
  std::size_t down_count = 0;
  graph::Rng rng(core::mix64(opt.seed));
  std::uniform_int_distribution<std::uint64_t> gap(1, 2 * opt.mean_gap);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uint64_t time = 0;

  for (std::size_t i = 0; i < opt.events; ++i) {
    time += gap(rng);
    bool do_fail;
    if (down_count == 0) {
      do_fail = true;
    } else if (down_count >= cap) {
      do_fail = false;
    } else {
      do_fail = coin(rng) < 0.5;
    }

    FaultEvent event;
    event.time = time;
    if (opt.model == FaultModel::kNodes) {
      // Whole-node churn: seeded pick among the up (fail) / down (repair)
      // nodes, in id order so the draw is population-order independent.
      std::vector<NodeId> pool;
      pool.reserve(population);
      for (NodeId u = 0; u < n; ++u) {
        if (down[u] == !do_fail) pool.push_back(u);
      }
      std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
      const NodeId u = pool[pick(rng)];
      down[u] = do_fail;
      down_count += do_fail ? 1 : -1;
      event.kind = do_fail ? FaultKind::kNodeFail : FaultKind::kNodeRepair;
      event.u = u;
      event.v = u;
    } else if (do_fail) {
      // First live edge in preference order whose removal keeps the live
      // graph connected; if every live edge is a bridge, fall back to a
      // repair so the plan never stalls.
      std::size_t chosen = edges.size();
      std::size_t fallback = edges.size();
      for (std::size_t e : pref) {
        if (down[e]) continue;
        if (fallback == edges.size()) fallback = e;
        if (graph::is_connected(live_minus(edges, down, n, e))) {
          chosen = e;
          break;
        }
      }
      if (chosen == edges.size() && down_count > 0) {
        do_fail = false;  // all live edges are bridges: repair instead
      } else {
        if (chosen == edges.size()) chosen = fallback;  // nothing down yet
        down[chosen] = true;
        ++down_count;
        event.kind = FaultKind::kLinkFail;
        event.u = edges[chosen].first;
        event.v = edges[chosen].second;
      }
    }
    if (opt.model != FaultModel::kNodes && !do_fail) {
      // Seeded pick among the down links, in edge-list order.
      std::vector<std::size_t> pool;
      pool.reserve(down_count);
      for (std::size_t e = 0; e < edges.size(); ++e) {
        if (down[e]) pool.push_back(e);
      }
      std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
      const std::size_t e = pool[pick(rng)];
      down[e] = false;
      --down_count;
      event.kind = FaultKind::kLinkRepair;
      event.u = edges[e].first;
      event.v = edges[e].second;
    }
    out.plan.add(event);
    if ((i + 1) % opt.quiesce_every == 0) out.quiesce_after.push_back(i);
  }
  if (out.quiesce_after.empty() || out.quiesce_after.back() != opt.events - 1) {
    out.quiesce_after.push_back(opt.events - 1);
  }
  return out;
}

const char* to_string(ChurnStatus status) noexcept {
  switch (status) {
    case ChurnStatus::kCertified:
      return "certified";
    case ChurnStatus::kUnverified:
      return "unverified";
    case ChurnStatus::kStale:
      return "stale";
    case ChurnStatus::kMismatch:
      return "mismatch";
  }
  return "?";
}

ChurnReport run_churn_session(model::RepairableScheme& rs,
                              const ChurnPlan& plan,
                              const ChurnSessionConfig& cfg) {
  // Copy the pre-churn topology: rs.topology() mutates as events apply,
  // but the simulator and the session's LiveTopology need the stable base
  // graph.
  const graph::Graph base = rs.topology();
  const std::size_t n = base.node_count();
  LiveTopology live(base);

  Simulator sim(base, rs.scheme(), cfg.sim);
  sim.schedule(plan.plan);

  const std::vector<FaultEvent>& events = plan.plan.events();
  const std::uint64_t horizon =
      (events.empty() ? 0 : events.back().time) + cfg.repair_lag + 1;
  if (n >= 2) {
    graph::Rng rng(core::mix64(cfg.traffic_seed ^ 0x7aff1c00ULL));
    std::uniform_int_distribution<std::uint64_t> when(0, horizon);
    std::uniform_int_distribution<NodeId> src(0, static_cast<NodeId>(n - 1));
    std::uniform_int_distribution<NodeId> off(1, static_cast<NodeId>(n - 1));
    for (std::size_t i = 0; i < cfg.messages; ++i) {
      const NodeId u = src(rng);
      const NodeId v = static_cast<NodeId>((u + off(rng)) % n);
      sim.send(u, v, when(rng));
    }
  }

  ChurnReport report;
  std::size_t quiesce_pos = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    // Everything strictly before the fault routes on converged tables…
    accumulate(report.traffic, sim.run_until(e.time));
    // …and the window [fault, activation] routes on the stale ones.
    const SimulationStats stale = sim.run_until(e.time + cfg.repair_lag + 1);
    accumulate(report.traffic, stale);
    report.stale_sent += stale.sent;

    for (const model::TopologyEvent& delta : live.apply(e)) {
      rs.apply_event(delta);
      ++report.deltas_applied;
    }
    sim.rebind(rs.scheme());
    ++report.events_applied;

    if (quiesce_pos < plan.quiesce_after.size() &&
        plan.quiesce_after[quiesce_pos] == i) {
      ++quiesce_pos;
      if (cfg.verify_at_quiesce) {
        ++report.quiesce_points;
        const schemes::RepairMatch m =
            schemes::repaired_matches_fresh(rs, cfg.threads);
        if (!m.match) {
          ++report.quiesce_mismatches;
          if (report.first_mismatch.empty()) report.first_mismatch = m.detail;
        }
      }
    }
  }
  accumulate(report.traffic, sim.run());

  report.repair = rs.stats();
  if (report.quiesce_mismatches > 0) {
    report.status = ChurnStatus::kMismatch;
  } else if (!rs.available()) {
    report.status = ChurnStatus::kStale;
  } else if (cfg.verify_at_quiesce && report.quiesce_points > 0) {
    report.status = ChurnStatus::kCertified;
  } else {
    report.status = ChurnStatus::kUnverified;
  }

  obs::counter("churn.events").inc(report.events_applied);
  obs::counter("churn.deltas").inc(report.deltas_applied);
  obs::counter("churn.patched").inc(report.repair.patched);
  obs::counter("churn.rebuilt").inc(report.repair.rebuilt);
  obs::counter("churn.inapplicable").inc(report.repair.inapplicable);
  obs::counter("churn.tables_touched").inc(report.repair.tables_touched);
  obs::counter("churn.dist_rows_bfs").inc(report.repair.dist_rows_bfs);
  obs::counter("churn.dist_rows_patched").inc(report.repair.dist_rows_patched);
  obs::counter("churn.quiesce_checks").inc(report.quiesce_points);
  obs::counter("churn.quiesce_mismatches").inc(report.quiesce_mismatches);
  obs::counter("churn.stale_sent").inc(report.stale_sent);
  return report;
}

}  // namespace optrt::net
