// Discrete-event message-passing simulator: the operational semantics of
// §1's routing model. Messages travel hop by hop; at each node the local
// routing function picks the outgoing edge; the carrier maintains the
// arrival link (`came_from`). Full-information schemes reroute around
// failed links — the exact capability §1 motivates them with; single-path
// schemes can opt into the recovery policies of net/resilience.hpp.
//
// Topology changes arrive as a timed net/faults.hpp FaultPlan that the
// simulator's LiveTopology replays as the event loop advances (faults at
// time t apply before message hops at time t), so the same seeded plan
// degrades every scheme identically.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "graph/graph.hpp"
#include "model/scheme.hpp"
#include "net/faults.hpp"
#include "net/resilience.hpp"

namespace optrt::net {

using graph::NodeId;

struct SimulatorConfig {
  /// Per-link transit time (all links equal; the paper's networks are
  /// unweighted).
  std::uint64_t link_latency = 1;
  /// Messages exceeding this many edges are dropped (guards probe loops).
  std::size_t max_hops = 0;  ///< 0 = model::default_hop_budget(n)
  /// Store-and-forward congestion: each directed link transmits one
  /// message per link_latency window; others queue FIFO. Makes hotspot
  /// concentration visible (e.g. Theorem 4's hub under load).
  bool serialize_links = false;
  /// Recovery policy consulted when a message's primary hop is unusable.
  ResilienceConfig resilience;
  /// Accumulate pre-failure shortest-path distances of delivered messages
  /// (SimulationStats::mean_stretch); costs one cached all-pairs BFS.
  bool measure_stretch = false;
};

/// Outcome of one message.
struct MessageRecord {
  std::uint64_t id = 0;
  NodeId source = 0;
  NodeId destination = 0;
  bool delivered = false;
  bool dropped_on_failure = false;  ///< no usable outgoing link
  bool used_fallback = false;       ///< switched to sequential-search mode
  std::uint32_t retries = 0;
  std::uint32_t deflections = 0;
  std::size_t hops = 0;
  std::uint64_t send_time = 0;
  std::uint64_t arrival_time = 0;
};

struct SimulationStats {
  std::size_t sent = 0;  ///< messages resolved this run (delivered+dropped)
  std::size_t delivered = 0;
  std::size_t dropped = 0;
  std::uint64_t total_hops = 0;
  std::uint64_t makespan = 0;       ///< last arrival time
  std::uint64_t max_link_load = 0;  ///< most messages over one directed link
  // Degradation metrics under faults.
  std::uint64_t total_retries = 0;      ///< retry re-presentations
  std::uint64_t deflections = 0;        ///< rerouted (alternate-port) hops
  std::size_t fallback_messages = 0;    ///< messages that entered fallback
  std::uint64_t shortest_hops = 0;      ///< Σ pre-failure d(s,t), delivered
                                        ///< (measure_stretch only)

  [[nodiscard]] double mean_hops() const noexcept {
    return delivered == 0
               ? 0.0
               : static_cast<double>(total_hops) / static_cast<double>(delivered);
  }
  /// Fraction of resolved messages delivered (1.0 when nothing was sent).
  [[nodiscard]] double delivery_rate() const noexcept {
    return sent == 0 ? 1.0
                     : static_cast<double>(delivered) /
                           static_cast<double>(sent);
  }
  /// Mean route length of delivered messages relative to the *pre-failure*
  /// shortest path — the degradation stretch. 0 when shortest_hops is 0
  /// (measure_stretch off, or nothing delivered); write_stats_fields then
  /// writes null.
  [[nodiscard]] double mean_stretch() const noexcept {
    return shortest_hops == 0 ? 0.0
                              : static_cast<double>(total_hops) /
                                    static_cast<double>(shortest_hops);
  }
};

/// Event-driven simulator over a fixed graph and routing scheme.
class Simulator {
 public:
  Simulator(const graph::Graph& g, const model::RoutingScheme& scheme,
            SimulatorConfig config = {});

  /// Enqueues a message; returns its id.
  std::uint64_t send(NodeId source, NodeId destination,
                     std::uint64_t at_time = 0);

  /// Appends a fault plan's events to the replay schedule. Events at equal
  /// times apply in plan order (stable), before message hops at that time.
  void schedule(const FaultPlan& plan) { live_.schedule(plan); }

  /// Marks the undirected link {u, v} down / up immediately.
  void fail_link(NodeId u, NodeId v) {
    live_.apply({0, FaultKind::kLinkFail, u, v});
  }
  void restore_link(NodeId u, NodeId v) {
    live_.apply({0, FaultKind::kLinkRepair, u, v});
  }
  /// True iff {u, v} is a usable edge: the link itself and both endpoints
  /// are up.
  [[nodiscard]] bool link_up(NodeId u, NodeId v) const {
    return live_.link_live(u, v);
  }
  [[nodiscard]] bool node_up(NodeId u) const { return live_.node_up(u); }

  /// Runs until all in-flight messages are delivered or dropped (any
  /// scheduled faults beyond the last message still apply).
  SimulationStats run();

  /// Runs the event loop only for events with time < `limit`, leaving
  /// later messages queued and later faults unapplied, and returns the
  /// stats of just this slice (sum slice stats for run()-equivalent
  /// totals). The churn driver interleaves run_until with table repairs:
  /// everything strictly before a repair's activation time routes on the
  /// old (stale) tables, exactly like a real control plane converging
  /// behind the data plane.
  SimulationStats run_until(std::uint64_t limit);

  /// Swaps the routing scheme mid-stream (topology fixed): re-resolves
  /// the full-information capability and rebuilds the resilience engine.
  /// In-flight
  /// messages continue with the new tables on their next hop — the
  /// repaired-table activation point of a churn session.
  void rebind(const model::RoutingScheme& scheme);

  [[nodiscard]] const std::vector<MessageRecord>& records() const noexcept {
    return records_;
  }

  /// Effective configuration (sentinels resolved; e.g. max_hops == 0 →
  /// model::default_hop_budget(n)).
  [[nodiscard]] const SimulatorConfig& config() const noexcept {
    return config_;
  }

  /// Messages carried over the directed link u → v in past run() calls.
  [[nodiscard]] std::uint64_t link_load(NodeId u, NodeId v) const;

 private:
  struct Event {
    std::uint64_t time;
    std::uint64_t seq;  // FIFO tie-break
    std::size_t record_index;
    NodeId at;
    model::MessageHeader header;

    friend bool operator>(const Event& a, const Event& b) noexcept {
      return std::tie(a.time, a.seq) > std::tie(b.time, b.seq);
    }
  };

  /// Picks the next hop at `e.at`, honouring failures for full-information
  /// schemes and fallback mode. Returns nullopt when the message is
  /// blocked (resilience policy decides its fate).
  [[nodiscard]] std::optional<NodeId> pick_next_hop(Event& e);

  /// Arc id of at → hop; throws std::logic_error when the scheme named a
  /// hop that is not a neighbour.
  [[nodiscard]] std::size_t arc_to(NodeId at, NodeId hop) const;

  /// Shared body of run() / run_until(): processes events with
  /// time < `limit`; `apply_trailing` replays leftover scheduled faults
  /// once the queue drains (full run() semantics only).
  SimulationStats run_core(std::uint64_t limit, bool apply_trailing);

  LiveTopology live_;  // the graph and its scheduled faults
  const model::RoutingScheme* scheme_;
  const model::FullInformationRouting* full_info_;  // non-null if capable
  SimulatorConfig config_;
  std::unique_ptr<ResilienceEngine> resilience_;  // non-null if policy set
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::vector<MessageRecord> records_;
  // Per-directed-link state lives in flat arrays indexed by the graph's
  // arc id of u → v — the event loop does one binary search per hop
  // instead of hashing, and the arrays stay cache-resident across hops.
  // serialize_links: earliest next departure per directed link.
  std::vector<std::uint64_t> link_free_at_;
  // Messages per directed link, across runs.
  std::vector<std::uint64_t> link_load_;
};

}  // namespace optrt::net
