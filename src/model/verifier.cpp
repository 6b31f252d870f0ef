#include "model/verifier.hpp"

#include <algorithm>
#include <limits>
#include <random>

#include "core/parallel.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace optrt::model {

namespace {

// Per-pair outcome of one route: its edge count when delivered within
// the hop budget, else one of these codes.
constexpr std::uint32_t kFailed = 0xFFFFFFFEu;   ///< loop or budget spent
constexpr std::uint32_t kInvalid = 0xFFFFFFFDu;  ///< non-neighbour hop

// Walks one message from src to dst, carrying its header hop to hop.
std::uint32_t walk(const graph::Graph& g, const RoutingScheme& scheme,
                   NodeId src, NodeId dst_internal, std::size_t hop_budget) {
  const NodeId dest_label = scheme.label_of(dst_internal);
  MessageHeader header;
  NodeId current = src;
  std::uint32_t edges = 0;
  while (current != dst_internal) {
    if (edges >= hop_budget) return kFailed;
    const NodeId next = scheme.next_hop(current, dest_label, header);
    if (next >= g.node_count() || !g.has_edge(current, next)) {
      return kInvalid;
    }
    header.came_from = current;
    current = next;
    ++edges;
  }
  return edges;
}

// Partial verification result for one source node. Pairs are added in
// ascending destination order and sources merged in source order by
// finish() — the association the serial reference uses — so every path
// agrees bit for bit, including the floating-point stretch aggregates.
struct SourceAccum {
  std::size_t pairs_checked = 0;
  std::size_t pairs_failed = 0;
  std::size_t invalid_hops = 0;
  std::uint64_t total_route_edges = 0;
  std::size_t max_route_edges = 0;
  double max_stretch = 0.0;
  double stretch_sum = 0.0;
  std::size_t stretch_pairs = 0;
  std::size_t pairs_over = 0;  ///< delivered pairs beyond the stretch bound

  /// One ordered pair at distance `d` whose route ended in `outcome`.
  void add(std::uint32_t outcome, std::uint32_t d, double stretch_bound) {
    ++pairs_checked;
    // Disconnected pair: schemes are only required to route within the
    // connected component; skip.
    if (d == graph::kUnreachable) return;
    if (outcome == kInvalid) {
      ++invalid_hops;
      ++pairs_failed;
      return;
    }
    if (outcome == kFailed) {
      ++pairs_failed;
      return;
    }
    total_route_edges += outcome;
    max_route_edges = std::max<std::size_t>(max_route_edges, outcome);
    const double stretch =
        static_cast<double>(outcome) / static_cast<double>(d);
    max_stretch = std::max(max_stretch, stretch);
    stretch_sum += stretch;
    ++stretch_pairs;
    if (stretch > stretch_bound) ++pairs_over;
  }
};

SourceAccum verify_from_source(const graph::Graph& g,
                               const RoutingScheme& scheme,
                               const graph::DistanceMatrix& dist, NodeId u,
                               std::size_t hop_budget,
                               double stretch_bound) {
  SourceAccum acc;
  const auto row = dist.row(u);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (u == v) continue;
    // add() counts a disconnected pair as checked; it is never walked.
    acc.add(row[v] == graph::kUnreachable
                ? kFailed
                : walk(g, scheme, u, v, hop_budget),
            row[v], stretch_bound);
  }
  return acc;
}

VerificationResult finish(const std::vector<SourceAccum>& accums) {
  VerificationResult result;
  double stretch_sum = 0.0;
  std::size_t stretch_pairs = 0;
  for (const SourceAccum& acc : accums) {
    result.pairs_checked += acc.pairs_checked;
    result.pairs_failed += acc.pairs_failed;
    result.invalid_hops += acc.invalid_hops;
    result.total_route_edges += acc.total_route_edges;
    result.max_route_edges = std::max(result.max_route_edges, acc.max_route_edges);
    result.max_stretch = std::max(result.max_stretch, acc.max_stretch);
    stretch_sum += acc.stretch_sum;
    stretch_pairs += acc.stretch_pairs;
  }
  result.all_delivered = result.pairs_failed == 0;
  result.mean_stretch =
      stretch_pairs == 0 ? 0.0 : stretch_sum / static_cast<double>(stretch_pairs);
  return result;
}

// Destinations per block: a block's first hops are tabulated in parallel
// over destinations, then folded into per-source state in parallel over
// sources, each source taking the block's destinations in ascending order.
constexpr std::size_t kDestBlock = 64;

// First-hop table entry of a node whose hop is not an incident edge.
constexpr NodeId kNoHop = std::numeric_limits<NodeId>::max();

// Writes next_hop(x, label_of(v)) for a fresh header into hops[x] for
// every x != v, or kNoHop where it names no neighbour of x; with `reach`,
// only for the x whose reach[x] is finite (the nodes that route to v).
void first_hops(const graph::Graph& g, const RoutingScheme& scheme, NodeId v,
                const std::uint32_t* reach, NodeId* hops) {
  const NodeId label = scheme.label_of(v);
  const std::size_t n = g.node_count();
  for (NodeId x = 0; x < n; ++x) {
    if (x == v || (reach != nullptr && reach[x] == graph::kUnreachable)) {
      continue;
    }
    MessageHeader header;
    const NodeId next = scheme.next_hop(x, label, header);
    hops[x] = next < n && g.has_edge(x, next) ? next : kNoHop;
  }
}

// Resolves every source's route to v from the first-hop table `hops`:
// from each unresolved node it follows hops until it meets a resolved
// node, v, a node without a valid hop, or a node already on the path (a
// loop), then labels the path back to front with how the route ends and
// how many valid hops precede that end. out[x · stride] receives x's
// outcome under the hop budget, applied in walk()'s order: a delivery
// needing more than hop_budget edges fails, and an invalid hop counts
// only when fewer than hop_budget edges precede it.
class RouteResolver {
 public:
  explicit RouteResolver(std::size_t n) : end_(n), depth_(n), path_(n) {}

  void resolve(NodeId v, const std::uint32_t* reach, const NodeId* hops,
               std::size_t hop_budget, std::uint32_t* out,
               std::size_t stride) {
    const std::size_t n = end_.size();
    std::fill(end_.begin(), end_.end(), kOpen);
    end_[v] = kDelivered;
    depth_[v] = 0;
    for (NodeId x = 0; x < n; ++x) {
      if (x == v || reach[x] == graph::kUnreachable) continue;
      std::size_t len = 0;
      NodeId y = x;
      while (end_[y] == kOpen && hops[y] != kNoHop) {
        end_[y] = kOnPath;
        path_[len++] = y;
        y = hops[y];
      }
      std::uint8_t end = end_[y];
      std::uint32_t depth = depth_[y];
      if (end == kOnPath) {
        end = kLoop;
      } else if (end == kOpen) {  // y names a non-neighbour
        end = end_[y] = kInvalidHop;
        depth = depth_[y] = 0;
      }
      while (len > 0) {
        const NodeId z = path_[--len];
        end_[z] = end;
        depth_[z] = ++depth;
      }
    }
    for (NodeId x = 0; x < n; ++x) {
      if (x == v || reach[x] == graph::kUnreachable) continue;
      std::uint32_t outcome = kFailed;
      if (end_[x] == kDelivered && depth_[x] <= hop_budget) {
        outcome = depth_[x];
      } else if (end_[x] == kInvalidHop && depth_[x] < hop_budget) {
        outcome = kInvalid;
      }
      out[x * stride] = outcome;
    }
  }

 private:
  // end_: how the route from a node ends; depth_: the valid hops before.
  static constexpr std::uint8_t kOpen = 0;
  static constexpr std::uint8_t kOnPath = 1;
  static constexpr std::uint8_t kDelivered = 2;
  static constexpr std::uint8_t kInvalidHop = 3;
  static constexpr std::uint8_t kLoop = 4;

  std::vector<std::uint8_t> end_;
  std::vector<std::uint32_t> depth_;
  std::vector<NodeId> path_;
};

}  // namespace

std::size_t route_once(const graph::Graph& g, const RoutingScheme& scheme,
                       NodeId src, NodeId dst, std::size_t hop_budget) {
  if (hop_budget == 0) hop_budget = default_hop_budget(g.node_count());
  const std::uint32_t out = walk(g, scheme, src, dst, hop_budget);
  return out == kFailed || out == kInvalid ? 0 : out;
}

namespace {

/// Routes every pair by destination: per block of kDestBlock destinations,
/// one first hop per (node, destination), every source's outcome resolved
/// from them, then folded into the source's accumulator in ascending
/// destination order. Reads only the destinations' rows of `dist`
/// (d(v, u) = d(u, v)).
std::vector<SourceAccum> verify_by_destination(
    const graph::Graph& g, const RoutingScheme& scheme,
    const graph::DistanceMatrix& dist, std::size_t hop_budget,
    core::ThreadPool& pool, double stretch_bound) {
  const std::size_t n = g.node_count();
  std::vector<SourceAccum> accums(n);
  std::vector<std::uint32_t> outcomes(n * kDestBlock);  // [source][dest]
  for (std::size_t v0 = 0; v0 < n; v0 += kDestBlock) {
    const std::size_t block = std::min(kDestBlock, n - v0);
    pool.parallel_for(block, [&](std::size_t begin, std::size_t end) {
      std::vector<NodeId> hops(n);
      RouteResolver resolver(n);
      for (std::size_t j = begin; j < end; ++j) {
        const auto v = static_cast<NodeId>(v0 + j);
        const std::uint32_t* reach = dist.row(v).data();
        first_hops(g, scheme, v, reach, hops.data());
        resolver.resolve(v, reach, hops.data(), hop_budget,
                         outcomes.data() + j, kDestBlock);
      }
    });
    pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t u = begin; u < end; ++u) {
        const std::uint32_t* out = outcomes.data() + u * kDestBlock;
        for (std::size_t j = 0; j < block; ++j) {
          const auto v = static_cast<NodeId>(v0 + j);
          if (v == u) continue;
          accums[u].add(out[j], dist.at(v, static_cast<NodeId>(u)),
                        stretch_bound);
        }
      }
    });
  }
  return accums;
}

/// Shared core of verify_scheme and verify_scheme_stretch: by destination,
/// or source by source when next_hop reads the header.
std::vector<SourceAccum> verify_sharded(const graph::Graph& g,
                                        const RoutingScheme& scheme,
                                        std::size_t hop_budget,
                                        std::size_t threads,
                                        double stretch_bound) {
  auto& reg = obs::MetricsRegistry::global();
  const obs::Counter pairs = reg.counter("model.verifier.pairs_checked");
  const obs::Histogram route_edges =
      reg.histogram("model.verifier.source_route_edges", obs::hop_buckets());
  const auto dist = graph::DistanceCache::global().get(g);
  core::ThreadPool pool(threads);
  const auto accums =
      scheme.reads_header()
          ? core::parallel_map<SourceAccum>(
                pool, g.node_count(),
                [&](std::size_t u) {
                  return verify_from_source(g, scheme, *dist,
                                            static_cast<NodeId>(u),
                                            hop_budget, stretch_bound);
                })
          : verify_by_destination(g, scheme, *dist, hop_budget, pool,
                                  stretch_bound);
  // Per-source observations merge into the same totals at any thread
  // count (tests/obs_test.cpp pins this at 1/2/8).
  for (const SourceAccum& acc : accums) {
    pairs.inc(acc.pairs_checked);
    route_edges.observe(acc.total_route_edges);
  }
  reg.counter("model.verifier.runs").inc();
  reg.counter("model.verifier.shards_merged").inc(accums.size());
  return accums;
}

}  // namespace

VerificationResult verify_scheme(const graph::Graph& g,
                                 const RoutingScheme& scheme,
                                 std::size_t hop_budget, std::size_t threads) {
  if (hop_budget == 0) hop_budget = default_hop_budget(g.node_count());
  obs::TraceSpan span("model.verify_scheme");
  return finish(verify_sharded(g, scheme, hop_budget, threads,
                               std::numeric_limits<double>::infinity()));
}

StretchVerificationResult verify_scheme_stretch(const graph::Graph& g,
                                                const RoutingScheme& scheme,
                                                double max_stretch,
                                                std::size_t hop_budget,
                                                std::size_t threads) {
  if (hop_budget == 0) hop_budget = default_hop_budget(g.node_count());
  obs::TraceSpan span("model.verify_scheme_stretch");
  const auto accums =
      verify_sharded(g, scheme, hop_budget, threads, max_stretch);
  StretchVerificationResult result;
  result.base = finish(accums);
  result.stretch_bound = max_stretch;
  for (const SourceAccum& acc : accums) {
    result.pairs_over_stretch += acc.pairs_over;
  }
  obs::counter("model.verifier.pairs_over_stretch")
      .inc(result.pairs_over_stretch);
  return result;
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;  // FNV-1a
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

constexpr std::uint64_t fold(std::uint64_t h, std::uint64_t x) {
  return (h ^ x) * kFnvPrime;
}

// Folds the pair (u, v) into h: its key, every node the route visits, and
// a sentinel separating "delivered in k hops" from any undelivered walk
// sharing a prefix. `hop` names the next node, or kNoHop to stop.
template <typename Hop>
std::uint64_t fold_route(std::uint64_t h, NodeId u, NodeId v,
                         std::size_t hop_budget, Hop&& hop) {
  h = fold(h, (static_cast<std::uint64_t>(u) << 32) | v);
  NodeId current = u;
  for (std::size_t edges = 0; current != v && edges < hop_budget; ++edges) {
    const NodeId next = hop(current);
    if (next == kNoHop) break;
    current = next;
    h = fold(h, current);
  }
  return fold(h, current == v ? 1u : 0u);
}

}  // namespace

std::uint64_t route_fingerprint(const graph::Graph& g,
                                const RoutingScheme& scheme,
                                std::size_t hop_budget, std::size_t threads) {
  if (hop_budget == 0) hop_budget = default_hop_budget(g.node_count());
  const std::size_t n = g.node_count();
  core::ThreadPool pool(threads);
  std::vector<std::uint64_t> shards(n, kFnvOffset);
  if (scheme.reads_header()) {
    pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t src = begin; src < end; ++src) {
        const auto u = static_cast<NodeId>(src);
        std::uint64_t h = kFnvOffset;
        for (NodeId v = 0; v < n; ++v) {
          if (u == v) continue;
          const NodeId dest_label = scheme.label_of(v);
          MessageHeader header;
          h = fold_route(h, u, v, hop_budget, [&](NodeId x) {
            const NodeId next = scheme.next_hop(x, dest_label, header);
            if (next >= n || !g.has_edge(x, next)) return kNoHop;
            header.came_from = x;
            return next;
          });
        }
        shards[u] = h;
      }
    });
  } else {
    std::vector<NodeId> hops(n * kDestBlock);  // [dest][node]
    for (std::size_t v0 = 0; v0 < n; v0 += kDestBlock) {
      const std::size_t block = std::min(kDestBlock, n - v0);
      pool.parallel_for(block, [&](std::size_t begin, std::size_t end) {
        for (std::size_t j = begin; j < end; ++j) {
          first_hops(g, scheme, static_cast<NodeId>(v0 + j), nullptr,
                     hops.data() + j * n);
        }
      });
      pool.parallel_for(n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t src = begin; src < end; ++src) {
          const auto u = static_cast<NodeId>(src);
          std::uint64_t h = shards[u];
          for (std::size_t j = 0; j < block; ++j) {
            const auto v = static_cast<NodeId>(v0 + j);
            if (u == v) continue;
            const NodeId* next = hops.data() + j * n;
            h = fold_route(h, u, v, hop_budget,
                           [next](NodeId x) { return next[x]; });
          }
          shards[u] = h;
        }
      });
    }
  }
  // In-order merge: the fingerprint is a pure function of the per-source
  // hashes in source order, independent of scheduling.
  std::uint64_t out = core::mix64(0x10f1u ^ n);
  for (std::uint64_t h : shards) out = core::mix64(out ^ h);
  return out;
}

VerificationResult verify_scheme_serial(const graph::Graph& g,
                                        const RoutingScheme& scheme,
                                        std::size_t hop_budget) {
  if (hop_budget == 0) hop_budget = default_hop_budget(g.node_count());
  const graph::DistanceMatrix dist(g);
  std::vector<SourceAccum> accums;
  accums.reserve(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    accums.push_back(verify_from_source(
        g, scheme, dist, u, hop_budget,
        std::numeric_limits<double>::infinity()));
  }
  return finish(accums);
}

VerificationResult verify_scheme_sampled(const graph::Graph& g,
                                         const RoutingScheme& scheme,
                                         std::size_t samples,
                                         std::uint64_t seed,
                                         std::size_t hop_budget) {
  if (hop_budget == 0) hop_budget = default_hop_budget(g.node_count());
  VerificationResult result;
  const std::size_t n = g.node_count();
  if (n < 2) {
    result.all_delivered = true;
    return result;
  }
  graph::Rng rng(seed);
  std::uniform_int_distribution<NodeId> pick(0, static_cast<NodeId>(n - 1));
  double stretch_sum = 0.0;
  std::size_t stretch_pairs = 0;
  // Per-source BFS cache: sampled sources often repeat at small n.
  std::vector<std::vector<std::uint32_t>> dist_cache(n);
  while (result.pairs_checked < samples) {
    const NodeId u = pick(rng);
    const NodeId v = pick(rng);
    if (u == v) continue;
    if (dist_cache[u].empty()) dist_cache[u] = graph::bfs_distances(g, u);
    const std::uint32_t d = dist_cache[u][v];
    if (d == graph::kUnreachable) continue;
    ++result.pairs_checked;
    const std::size_t edges = route_once(g, scheme, u, v, hop_budget);
    if (edges == 0) {
      ++result.pairs_failed;
      continue;
    }
    result.total_route_edges += edges;
    result.max_route_edges = std::max(result.max_route_edges, edges);
    const double stretch = static_cast<double>(edges) / d;
    result.max_stretch = std::max(result.max_stretch, stretch);
    stretch_sum += stretch;
    ++stretch_pairs;
  }
  result.all_delivered = result.pairs_failed == 0;
  result.mean_stretch =
      stretch_pairs == 0 ? 0.0 : stretch_sum / static_cast<double>(stretch_pairs);
  return result;
}

FullInformationCheck verify_full_information(
    const graph::Graph& g, const FullInformationRouting& scheme) {
  FullInformationCheck check;
  const auto dist_ptr = graph::DistanceCache::global().get(g);
  const graph::DistanceMatrix& dist = *dist_ptr;
  const std::size_t n = g.node_count();
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v || dist.at(u, v) == graph::kUnreachable) continue;
      auto expected = graph::shortest_path_successors(g, dist, u, v);
      auto actual = scheme.all_next_hops(u, scheme.label_of(v));
      std::sort(actual.begin(), actual.end());
      if (expected != actual) ++check.mismatched_pairs;
    }
  }
  check.exact = check.mismatched_pairs == 0;
  return check;
}

}  // namespace optrt::model
