// Scheme verifier: drives every (source, destination) pair through a
// scheme's local routing functions, checks delivery, and measures the
// achieved stretch against true shortest-path distances — the definitions
// of "route" and "stretch factor" from §1 made executable.
#pragma once

#include <cstdint>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "model/scheme.hpp"

namespace optrt::model {

/// Default hop budget for routing a message on an n-node graph: 4n + 16,
/// generous enough for Theorem 5's 2(c+3)·log n probe walks. The single
/// source of truth behind the `hop_budget = 0` / `max_hops = 0` sentinels
/// of the verifier and the simulator.
[[nodiscard]] constexpr std::size_t default_hop_budget(std::size_t n) noexcept {
  return 4 * n + 16;
}

struct VerificationResult {
  bool all_delivered = false;
  std::size_t pairs_checked = 0;
  std::size_t pairs_failed = 0;     ///< undeliverable or hop-budget exceeded
  std::size_t invalid_hops = 0;     ///< next_hop returned a non-neighbour
  double max_stretch = 0.0;         ///< max over pairs of |route| / d(u,v)
  double mean_stretch = 0.0;
  std::uint64_t total_route_edges = 0;  ///< Σ edges traversed (incl. probes)
  std::size_t max_route_edges = 0;

  [[nodiscard]] bool ok() const noexcept {
    return all_delivered && invalid_hops == 0;
  }
};

/// Routes every ordered pair (u, v), u != v, through `scheme` on `g`.
/// A route longer than `hop_budget` edges counts as failed
/// (0 = default_hop_budget(n)).
///
/// Unless the scheme reads_header(), routes are resolved by destination:
/// for each v, every node x that reaches v is asked next_hop(x,
/// label_of(v)) once, and each source's route length, invalid hop or loop
/// follows from those first hops by memo, with the hop budget applied in
/// the order a hop-by-hop walk meets it. Destinations run in blocks of 64
/// in parallel on `threads` workers (0 = core::default_threads()); each
/// block is folded into per-source accumulators in ascending destination
/// order and the sources merged in source order. Schemes that read the
/// header are walked source by source, sharded the same way. Either way
/// every field of the result — including the floating-point max/mean
/// stretch — is bit-identical for any thread count, and identical to
/// verify_scheme_serial. Distances come from one
/// graph::DistanceCache::global() entry, read one row per destination.
[[nodiscard]] VerificationResult verify_scheme(const graph::Graph& g,
                                               const RoutingScheme& scheme,
                                               std::size_t hop_budget = 0,
                                               std::size_t threads = 0);

/// verify_scheme plus a stretch bound: the base result, the bound it was
/// checked against, and how many pairs exceeded it.
struct StretchVerificationResult {
  VerificationResult base;
  double stretch_bound = 0.0;
  std::size_t pairs_over_stretch = 0;  ///< delivered pairs with stretch > bound

  [[nodiscard]] bool ok() const noexcept {
    return base.ok() && pairs_over_stretch == 0;
  }
};

/// Stretch-aware verification: routes every ordered pair exactly like
/// verify_scheme (same blocks, same bit-identical merge at any thread
/// count) and additionally counts pairs whose achieved stretch exceeds
/// `max_stretch`. ok() demands delivery, no invalid hops, *and* every pair
/// within the bound; worst-case and average stretch are in `base`.
[[nodiscard]] StretchVerificationResult verify_scheme_stretch(
    const graph::Graph& g, const RoutingScheme& scheme, double max_stretch,
    std::size_t hop_budget = 0, std::size_t threads = 0);

/// Single-threaded reference implementation of verify_scheme: walks every
/// pair hop by hop from its source, carrying the header, whatever the
/// scheme declares. Kept as the differential-testing baseline
/// (tests/verifier_test.cpp compares verify_scheme and
/// verify_scheme_stretch against it field by field).
[[nodiscard]] VerificationResult verify_scheme_serial(
    const graph::Graph& g, const RoutingScheme& scheme,
    std::size_t hop_budget = 0);

/// Order-sensitive 64-bit hash of the full pair space's routes: for every
/// ordered pair (u, v), u != v, the exact hop sequence the scheme walks
/// (with a sentinel for undelivered pairs) folded FNV-style. Two schemes
/// with equal fingerprints route every pair through the identical node
/// sequence — the equivalence the churn differential oracle uses for TZ,
/// whose repaired tables are route-equal rather than byte-comparable in
/// general. Unless the scheme reads_header(), each block of 64
/// destinations tabulates every node's first hop toward each of them, and
/// each source's hash folds its routes through that table in ascending
/// destination order; schemes that read the header are walked source by
/// source. Merged in source order: bit-identical at any `threads`
/// (0 = core::default_threads()), and equal between the two paths.
[[nodiscard]] std::uint64_t route_fingerprint(const graph::Graph& g,
                                              const RoutingScheme& scheme,
                                              std::size_t hop_budget = 0,
                                              std::size_t threads = 0);

/// Routes one pair; returns the number of edges traversed, or 0 on failure.
[[nodiscard]] std::size_t route_once(const graph::Graph& g,
                                     const RoutingScheme& scheme, NodeId src,
                                     NodeId dst, std::size_t hop_budget);

/// Sampled verification for large n: routes `samples` uniformly random
/// connected pairs instead of all n(n−1). Same semantics as verify_scheme
/// restricted to the sample.
[[nodiscard]] VerificationResult verify_scheme_sampled(
    const graph::Graph& g, const RoutingScheme& scheme, std::size_t samples,
    std::uint64_t seed, std::size_t hop_budget = 0);

/// Checks a full-information scheme: for every pair, the advertised hop set
/// must equal the true shortest-path successor set.
struct FullInformationCheck {
  bool exact = false;
  std::size_t mismatched_pairs = 0;
};
[[nodiscard]] FullInformationCheck verify_full_information(
    const graph::Graph& g, const FullInformationRouting& scheme);

}  // namespace optrt::model
