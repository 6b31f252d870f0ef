#include "workloads.hpp"

#include <stdexcept>

#include "core/experiment.hpp"
#include "core/parallel.hpp"
#include "graph/generators.hpp"
#include "schemes/serialization.hpp"

namespace optrt::bench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"serve-bulk",
       "closed loop of 4096-pair zipf requests on TZ over ba:2: per-pair "
       "decode, label mapping and route_batch dominate",
       run_serve_bulk},
      {"catalog",
       "SIGHUP reload of 8 artifacts (mmap, CRC, decode, compile_fast) then "
       "route_batch over every kind",
       run_catalog},
      {"churn-tz",
       "TZ churn sessions: incremental repair and the quiesce oracle "
       "dominate, serving is bypassed",
       run_churn_tz},
      {"congest-tz",
       "in-network CONGEST TZ build plus stretch-3 certification: the only "
       "workload that runs the engine",
       run_congest_tz},
  };
  return table;
}

std::uint64_t derive_seed(const Options& opt, SeedAxis axis,
                          std::uint64_t index) {
  return core::point_seed(opt.seed, axis, index);
}

graph::Graph uniform_graph(std::size_t n, std::uint64_t seed) {
  graph::Rng rng(seed);
  return core::certified_random_graph(n, rng);
}

graph::Graph power_law_graph(std::size_t n, std::uint64_t seed) {
  const graph::TopologyFamily family = graph::TopologyFamily::parse("ba:2");
  for (;; ++seed) {
    graph::Graph g = family.make(n, seed);
    if (graph::is_connected(g)) return g;
  }
}

bitio::BitVector serialize_any(const model::RoutingScheme& scheme) {
  using namespace schemes;
  if (const auto* s = dynamic_cast<const CompactDiam2Scheme*>(&scheme)) {
    return serialize(*s);
  }
  if (const auto* s = dynamic_cast<const FullTableScheme*>(&scheme)) {
    return serialize(*s);
  }
  if (const auto* s = dynamic_cast<const HubScheme*>(&scheme)) {
    return serialize(*s);
  }
  if (const auto* s = dynamic_cast<const RoutingCenterScheme*>(&scheme)) {
    return serialize(*s);
  }
  if (const auto* s = dynamic_cast<const LandmarkScheme*>(&scheme)) {
    return serialize(*s);
  }
  if (const auto* s = dynamic_cast<const HierarchicalScheme*>(&scheme)) {
    return serialize(*s);
  }
  if (const auto* s = dynamic_cast<const SequentialSearchScheme*>(&scheme)) {
    return serialize(*s);
  }
  if (const auto* s = dynamic_cast<const TzScheme*>(&scheme)) {
    return serialize(*s);
  }
  throw std::invalid_argument("no artifact format for scheme " +
                              scheme.name());
}

}  // namespace optrt::bench
