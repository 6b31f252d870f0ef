// Thorup-Zwick compact routing with stretch ≤ 3 (the k = 2 scheme of
// "Compact routing schemes", SPAA 2001, as evaluated on Internet-like
// topologies by Krioukov-Fall-Yang).
//
// Sample a landmark set A by including each node independently with
// probability √(ln n / n) (resampling, deterministically in the seed, while
// A is empty or some cluster exceeds the 4√(n ln n) cap). Let l(v) be v's
// nearest landmark and d(v, A) = d(v, l(v)). Node w stores
//   (a) a next-hop port toward every landmark, and
//   (b) a next-hop port for every v in its *cluster*
//       C(w) = { v : d(w, v) < d(v, A) }   (strict inequality).
// Destinations are addressed by the charged label (v, l(v), exit port at
// l(v) toward v) — model γ. Routing from u to v: deliver on a shortest
// path while v is in the current cluster; at l(v) itself take the label's
// exit port; otherwise head for l(v).
//
// The strict inequality is what separates this from LandmarkScheme's
// non-strict vicinities: clusters of landmarks are empty, membership is
// monotone along shortest paths (d(y, v) = d(x, v) − 1 < d(v, A)), and the
// handoff detour costs at most 2·d(v, l(v)) ≤ 2·d(u, v) when v ∉ C(u) —
// worst-case stretch exactly ≤ 3, with the sampled A keeping every cluster
// and bunch at O(√(n log n)) w.h.p. instead of the ⌈√n⌉-landmark heuristic.
#pragma once

#include <memory>
#include <vector>

#include "bitio/bit_vector.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/ports.hpp"
#include "model/scheme.hpp"

namespace optrt::schemes {

using graph::NodeId;

struct TzOptions {
  /// Seed for the landmark Bernoulli sample.
  std::uint64_t seed = 1;
  /// Resample attempts before accepting the best nonempty sample seen.
  std::size_t max_resamples = 32;
};

/// The landmark election, factored out of the constructor so incremental
/// repair (schemes/repair.hpp) can replay it against maintained distances:
/// a pure function of (degrees, dist, options) with a draw sequence pinned
/// by tz_test — identical inputs yield the identical sorted landmark set
/// the TzScheme constructor would sample.
[[nodiscard]] std::vector<NodeId> tz_sample_landmarks(
    const graph::Graph& g, const graph::DistanceMatrix& dist,
    const TzOptions& options);

/// Serializes one node's TZ table (landmark ports, then the strict-cluster
/// id/port list; schemes/landmark_table.hpp) from explicit inputs — the
/// layout the constructor writes and compiles. `dva[v]` must be d(v, A)
/// for the given landmark set. Shared by the constructor and the churn
/// repair path, so a patched table is byte-identical to a fresh build by
/// construction.
[[nodiscard]] bitio::BitVector tz_build_node_bits(
    const graph::Graph& g, const graph::DistanceMatrix& dist,
    const graph::PortAssignment& ports, const std::vector<NodeId>& landmarks,
    const std::vector<std::uint32_t>& dva, NodeId w);

class TzFastPath;

class TzScheme final : public model::RoutingScheme {
 public:
  using Options = TzOptions;

  /// Throws SchemeInapplicable on disconnected graphs.
  explicit TzScheme(const graph::Graph& g, Options options = {});

  /// Reconstructs from serialized state (deserialization path; see
  /// schemes/serialization.hpp): the sorted landmark set plus per-node
  /// bits. Nearest landmarks and the per-destination exit ports are
  /// recomputed from the graph (deterministic: least id on ties).
  TzScheme(const graph::Graph& g, std::vector<NodeId> landmarks,
           std::vector<bitio::BitVector> node_bits);

  /// Same reconstruction, but against caller-supplied distances instead of
  /// DistanceCache::global() — the churn repair path maintains its own
  /// incrementally patched matrix and must not pay a full BFS per event.
  TzScheme(const graph::Graph& g, std::vector<NodeId> landmarks,
           std::vector<bitio::BitVector> node_bits,
           const graph::DistanceMatrix& dist);

  [[nodiscard]] std::string name() const override { return "tz"; }
  [[nodiscard]] model::Model routing_model() const override {
    return model::kIIgamma;
  }
  [[nodiscard]] std::size_t node_count() const override { return n_; }
  [[nodiscard]] NodeId next_hop(NodeId u, NodeId dest_label,
                                model::MessageHeader& header) const override;
  [[nodiscard]] NodeId reference_next_hop(const graph::Graph& g, NodeId u,
                                          NodeId dest_label) const override;
  [[nodiscard]] model::SpaceReport space() const override;
  /// Compiled form, built in the constructor: per node, a rank-indexed
  /// cluster membership vector plus bit-packed landmark ports, resolved
  /// through a port-order CSR; it also holds the label tables (nearest
  /// landmarks and exit ports).
  [[nodiscard]] std::shared_ptr<const model::FastPath> compile_fast()
      const override;
  [[nodiscard]] std::vector<NodeId> port_enumeration(NodeId u) const override;

  /// Cluster-size cap enforced by the resample loop: 4√(n ln n).
  [[nodiscard]] static std::size_t cluster_cap(std::size_t n);

  [[nodiscard]] const std::vector<NodeId>& landmarks() const {
    return landmarks_;
  }
  /// v's nearest landmark (least id on ties), from the label table.
  [[nodiscard]] NodeId landmark_of(NodeId v) const;
  [[nodiscard]] std::size_t cluster_size(NodeId w) const;
  /// |B(v)| = |{w : d(v, w) < d(v, A)}| + |A| (v's bunch: the nodes whose
  /// cluster contains v, plus every landmark).
  [[nodiscard]] std::size_t bunch_size(NodeId v) const;
  [[nodiscard]] const bitio::BitVector& function_bits(NodeId u) const {
    return function_bits_[u];
  }

 private:
  /// The validating decode of the node bits into fast_, shared by all
  /// constructors; also derives the label tables from `dist`.
  void compile(const graph::Graph& g, std::vector<bitio::BitVector> node_bits,
               const graph::DistanceMatrix& dist);

  std::size_t n_;
  std::vector<NodeId> landmarks_;  // sorted
  std::vector<bitio::BitVector> function_bits_;
  std::shared_ptr<const TzFastPath> fast_;
};

}  // namespace optrt::schemes
