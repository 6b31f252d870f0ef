// churn-tz and congest-tz: the two network-side paths. churn-tz repairs TZ
// tables through live link churn with the quiesce oracle on; congest-tz
// builds TZ tables in-network on the CONGEST engine and certifies them.
// Neither touches the serving layer.
#include <memory>
#include <optional>
#include <string>

#include "model/verifier.hpp"
#include "net/churn.hpp"
#include "net/construction.hpp"
#include "schemes/repair.hpp"
#include "schemes/serialization.hpp"
#include "workloads.hpp"

namespace optrt::bench {

namespace {

/// "tz.flood a0" → "flood", "tz.tree.claim" → "tree".
std::string phase_group(const std::string& label) {
  const std::string rest = label.rfind("tz.", 0) == 0 ? label.substr(3) : label;
  return rest.substr(0, rest.find_first_of(". "));
}

struct ChurnState {
  explicit ChurnState(graph::Graph graph) : g(std::move(graph)) {}
  graph::Graph g;
  std::unique_ptr<model::RepairableScheme> first;  ///< for the warm-up session
};

bool same_stats(const model::RepairStats& a, const model::RepairStats& b) {
  return a.events == b.events && a.noops == b.noops &&
         a.patched == b.patched &&
         a.rebuilt == b.rebuilt && a.inapplicable == b.inapplicable &&
         a.tables_touched == b.tables_touched &&
         a.dist_rows_bfs == b.dist_rows_bfs &&
         a.dist_rows_patched == b.dist_rows_patched;
}

/// The traced run's own churn loop, with a span around each repair and
/// each oracle call (the TZ oracle dynamic_casts the repairable, so a
/// timing wrapper around it is not possible). Its final stats must equal
/// the session's.
void traced_repair_loop(const Context& ctx, const graph::Graph& g,
                        std::uint64_t tz_seed, const net::ChurnPlan& plan,
                        const net::ChurnReport& session, Gates& gates) {
  obs::Trace* trace = ctx.tracer.trace();
  auto rs = schemes::make_repairable("tz", g, tz_seed);
  net::LiveTopology live(g);
  const auto& events = plan.plan.events();
  std::size_t quiesce = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (const model::TopologyEvent& delta : live.apply(events[i])) {
      obs::TraceSpan span(trace, "schemes.repair.apply_event_us");
      rs->apply_event(delta);
    }
    if (quiesce < plan.quiesce_after.size() && plan.quiesce_after[quiesce] == i) {
      ++quiesce;
      schemes::RepairMatch match;
      {
        obs::TraceSpan span(trace, "schemes.repair.oracle_us");
        match = schemes::repaired_matches_fresh(*rs, ctx.opt.threads);
      }
      ++gates.attempted;
      if (!match.match) gates.fail("traced repair loop: " + match.detail);
    }
  }
  ++gates.attempted;
  if (!same_stats(rs->stats(), session.repair)) {
    gates.fail("traced repair loop's RepairStats differ from the session's");
  }
}

}  // namespace

RunData run_churn_tz(const Context& ctx) {
  RunData data;
  const Options& opt = ctx.opt;
  const std::size_t n = opt.smoke ? 64 : 128;
  auto state = repeat_setup(ctx, data, [&] {
    std::unique_ptr<ChurnState> s;
    {
      obs::TraceSpan span(ctx.tracer.trace(), "graph.generate_s");
      s = std::make_unique<ChurnState>(
          power_law_graph(n, derive_seed(opt, kGraphAxis)));
    }
    obs::TraceSpan span(ctx.tracer.trace(), "schemes.build_s");
    s->first =
        schemes::make_repairable("tz", s->g, derive_seed(opt, kSchemeAxis));
    return s;
  });

  net::ChurnOptions churn = net::ChurnOptions::parse(
      opt.smoke ? "uniform:12,3,4" : "uniform:32,3,16");
  net::ChurnSessionConfig config;
  config.messages = opt.smoke ? 64 : 512;
  config.threads = opt.threads;
  config.verify_at_quiesce = true;

  std::uint64_t session_index = 0;
  measure_loop(ctx, data, [&](bool measured) {
    // Each session runs on its own graph, TZ sample, plan and traffic, so
    // one run's median spans many networks instead of one seed's.
    // Generating the graph and building its repairable is not timed.
    const std::uint64_t i = session_index++;
    const std::uint64_t tz_seed = derive_seed(opt, kSchemeAxis, i);
    const graph::Graph g =
        i == 0 ? state->g : power_law_graph(n, derive_seed(opt, kGraphAxis, i));
    churn.seed = derive_seed(opt, kPlanAxis, i);
    config.traffic_seed = derive_seed(opt, kTrafficAxis, i);
    const net::ChurnPlan plan = net::make_churn_plan(g, churn);
    auto rs = i == 0 ? std::move(state->first)
                     : schemes::make_repairable("tz", g, tz_seed);
    net::ChurnReport report;
    double session_s = 0.0;
    {
      obs::TraceSpan span(measured ? ctx.tracer.trace() : nullptr,
                          "net.churn.session_us");
      const auto start = Clock::now();
      report = net::run_churn_session(*rs, plan, config);
      session_s = seconds_since(start);
    }
    ++data.gates.attempted;
    if (report.status != net::ChurnStatus::kCertified) {
      data.gates.fail(std::string("churn session ended ") +
                      net::to_string(report.status) + " " +
                      report.first_mismatch);
    }
    if (measured && ctx.tracer.trace() != nullptr) {
      traced_repair_loop(ctx, g, tz_seed, plan, report, data.gates);
    }
    // Distances of graphs that never recur; dropping them keeps the peak
    // resident set independent of how many sessions fit in the run.
    graph::DistanceCache::global().clear();
    if (!measured || report.deltas_applied == 0) return;
    data.ops += report.deltas_applied;
    data.traced_ops += report.deltas_applied;
    data.op_ms.push_back(session_s * 1e3 /
                         static_cast<double>(report.deltas_applied));
    const model::RepairStats& r = report.repair;
    data.counts["schemes.repair.tables_touched"] +=
        static_cast<double>(r.tables_touched);
    data.counts["schemes.repair.dist_rows_bfs"] +=
        static_cast<double>(r.dist_rows_bfs);
    data.counts["schemes.repair.dist_rows_patched"] +=
        static_cast<double>(r.dist_rows_patched);
    data.counts["schemes.repair.patched"] += static_cast<double>(r.patched);
    data.counts["schemes.repair.rebuilt"] += static_cast<double>(r.rebuilt);
    data.counts["net.churn.stale_sent"] +=
        static_cast<double>(report.stale_sent);
  });
  return data;
}

RunData run_congest_tz(const Context& ctx) {
  RunData data;
  const Options& opt = ctx.opt;
  struct CongestState {
    explicit CongestState(graph::Graph graph) : g(std::move(graph)) {}
    graph::Graph g;
    bitio::BitVector centralized;  ///< serialized centralized TzScheme
  };
  const auto state = repeat_setup(ctx, data, [&] {
    std::unique_ptr<CongestState> s;
    {
      obs::TraceSpan span(ctx.tracer.trace(), "graph.generate_s");
      s = std::make_unique<CongestState>(
          power_law_graph(opt.smoke ? 64 : 256, derive_seed(opt, kGraphAxis)));
    }
    std::optional<schemes::TzScheme> scheme;
    {
      obs::TraceSpan span(ctx.tracer.trace(), "schemes.build_s");
      scheme.emplace(s->g,
                     schemes::TzOptions{.seed = derive_seed(opt, kSchemeAxis)});
    }
    obs::TraceSpan span(ctx.tracer.trace(), "schemes.serialize_s");
    s->centralized = schemes::serialize(*scheme);
    return s;
  });

  std::uint64_t build_index = 0;
  measure_loop(ctx, data, [&](bool measured) {
    // Each build runs on its own network and TZ sample (the first on the
    // set-up graph and sample, which the centralized build was made for);
    // generating the graph is not timed, certifying it includes its
    // all-pairs distances.
    const std::uint64_t i = build_index++;
    const schemes::TzOptions tz{.seed = derive_seed(opt, kSchemeAxis, i)};
    const graph::Graph g =
        i == 0 ? state->g
               : power_law_graph(state->g.node_count(),
                                 derive_seed(opt, kGraphAxis, i));
    obs::Trace* trace = measured ? ctx.tracer.trace() : nullptr;
    const auto start = Clock::now();
    net::TzConstructionResult built;
    {
      obs::TraceSpan span(trace, "net.congest.construct_us");
      built = net::distributed_tz_construction(g, tz, {.threads = opt.threads});
    }
    ++data.gates.attempted;
    if (built.status != net::ConstructStatus::kOk) {
      data.gates.fail(std::string("CONGEST build ended ") +
                      net::to_string(built.status) + ": " + built.detail);
      return;
    }
    model::StretchVerificationResult verdict;
    {
      obs::TraceSpan span(trace, "model.verify_stretch_us");
      verdict = model::verify_scheme_stretch(g, *built.scheme, 3.0, 0,
                                             opt.threads);
    }
    const double build_s = seconds_since(start);
    graph::DistanceCache::global().clear();  // g never recurs
    if (!verdict.ok()) {
      data.gates.fail("CONGEST-built TZ failed stretch-3 certification");
    }
    if (i == 0) {
      ++data.gates.attempted;
      if (schemes::serialize(*built.scheme) != state->centralized) {
        data.gates.fail(
            "CONGEST-built TZ does not serialize bit-identical to the "
            "centralized build");
      }
    }
    if (!measured) return;
    ++data.ops;
    ++data.traced_ops;
    data.op_ms.push_back(build_s * 1e3);
    data.counts["net.congest.rounds"] += static_cast<double>(built.rounds);
    data.counts["net.congest.messages"] += static_cast<double>(built.messages);
    data.counts["net.congest.message_bits"] +=
        static_cast<double>(built.message_bits);
    for (const auto& phase : built.phase_stats) {
      const std::string key = "net.congest." + phase_group(phase.label) + ".";
      data.counts[key + "rounds"] += static_cast<double>(phase.rounds);
      data.counts[key + "messages"] += static_cast<double>(phase.messages);
      data.counts[key + "message_bits"] +=
          static_cast<double>(phase.message_bits);
    }
  });
  return data;
}

}  // namespace optrt::bench
