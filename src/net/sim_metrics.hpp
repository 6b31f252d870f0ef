// The one canonical JSON rendering of SimulationStats, shared by
// `optrt_cli simulate`, bench_failures, and anything else that prints a
// per-run stats row. Before this helper every caller hand-rolled the same
// dozen fields with subtly different names and precision; now the schema
// lives here once and tests/instrumentation_test.cpp pins it.
#pragma once

#include "net/simulator.hpp"
#include "obs/json.hpp"

namespace optrt::net {

/// Appends the canonical stats block to an object under construction:
///   sent, delivered, dropped, delivery_rate, mean_hops, mean_stretch,
///   total_hops, makespan, max_link_load, retries, deflections, fallbacks
/// (exact key order — regression-pinned). mean_stretch is null when
/// shortest_hops is 0: stretch was not measured or nothing was delivered.
/// The caller owns the enclosing begin_object()/end_object().
void write_stats_fields(obs::JsonWriter& w, const SimulationStats& stats);

/// The stats block as a standalone JSON object.
[[nodiscard]] std::string stats_json(const SimulationStats& stats);

}  // namespace optrt::net
