#include "net/sim_metrics.hpp"

namespace optrt::net {

void write_stats_fields(obs::JsonWriter& w, const SimulationStats& stats) {
  w.key("sent").value(stats.sent);
  w.key("delivered").value(stats.delivered);
  w.key("dropped").value(stats.dropped);
  w.key("delivery_rate").value(stats.delivery_rate());
  w.key("mean_hops").value(stats.mean_hops());
  if (stats.shortest_hops == 0) {
    w.key("mean_stretch").null();  // not measured, or nothing delivered
  } else {
    w.key("mean_stretch").value(stats.mean_stretch());
  }
  w.key("total_hops").value(stats.total_hops);
  w.key("makespan").value(stats.makespan);
  w.key("max_link_load").value(stats.max_link_load);
  w.key("retries").value(stats.total_retries);
  w.key("deflections").value(stats.deflections);
  w.key("fallbacks").value(stats.fallback_messages);
}

std::string stats_json(const SimulationStats& stats) {
  obs::JsonWriter w;
  w.begin_object();
  write_stats_fields(w, stats);
  w.end_object();
  return w.str();
}

}  // namespace optrt::net
