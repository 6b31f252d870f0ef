// Umbrella header: the public API of the Optimal Routing Tables library.
//
// Typical use:
//
//   #include "core/optrt.hpp"
//
//   optrt::graph::Rng rng(7);
//   auto g = optrt::core::certified_random_graph(256, rng);
//   auto scheme = optrt::schemes::compile(g, optrt::model::kIIalpha);
//   auto result = optrt::model::verify_scheme(g, *scheme);
//   auto bits   = scheme->space().total_bits();
//
// See README.md for the architecture overview and DESIGN.md for the
// paper-to-module map.
#pragma once

#include "bitio/bit_stream.hpp"
#include "bitio/bit_vector.hpp"
#include "bitio/codes.hpp"
#include "core/experiment.hpp"
#include "core/parallel.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "graph/algorithms.hpp"
#include "graph/cover.hpp"
#include "graph/encoding.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/labeling.hpp"
#include "graph/ports.hpp"
#include "graph/randomness.hpp"
#include "incompressibility/biguint.hpp"
#include "incompressibility/bounds.hpp"
#include "incompressibility/enumerative.hpp"
#include "incompressibility/graph_compressor.hpp"
#include "incompressibility/lemma_codecs.hpp"
#include "incompressibility/permutation_code.hpp"
#include "incompressibility/theorem10.hpp"
#include "incompressibility/theorem6.hpp"
#include "incompressibility/theorem7.hpp"
#include "incompressibility/theorem8.hpp"
#include "incompressibility/theorem9.hpp"
#include "model/fastpath.hpp"
#include "model/models.hpp"
#include "model/scheme.hpp"
#include "model/verifier.hpp"
#include "net/construction.hpp"
#include "net/faults.hpp"
#include "net/resilience.hpp"
#include "net/sim_metrics.hpp"
#include "net/simulator.hpp"
#include "net/workload.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "schemes/compact_diam2.hpp"
#include "schemes/compiler.hpp"
#include "schemes/errors.hpp"
#include "schemes/full_information.hpp"
#include "schemes/full_table.hpp"
#include "schemes/hierarchical.hpp"
#include "schemes/hub.hpp"
#include "schemes/interval.hpp"
#include "schemes/k_interval.hpp"
#include "schemes/landmark.hpp"
#include "schemes/neighbor_label.hpp"
#include "schemes/routing_center.hpp"
#include "schemes/sequential_search.hpp"
#include "schemes/serialization.hpp"
#include "schemes/tz.hpp"
