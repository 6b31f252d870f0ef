#include "net/simulator.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>

#include "graph/algorithms.hpp"
#include "graph/encoding.hpp"
#include "model/verifier.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "schemes/full_information.hpp"

namespace optrt::net {

Simulator::Simulator(const graph::Graph& g, const model::RoutingScheme& scheme,
                     SimulatorConfig config)
    : g_(&g),
      scheme_(&scheme),
      full_info_(dynamic_cast<const model::FullInformationRouting*>(&scheme)),
      config_(config),
      csr_(g),
      link_free_at_(csr_.arc_count(), 0),
      link_load_(csr_.arc_count(), 0) {
  if (config_.max_hops == 0) {
    config_.max_hops = model::default_hop_budget(g.node_count());
  }
  if (config_.resilience.policy != ResiliencePolicy::kNone) {
    resilience_ =
        std::make_unique<ResilienceEngine>(g, scheme, config_.resilience);
  }
}

std::uint64_t Simulator::send(NodeId source, NodeId destination,
                              std::uint64_t at_time) {
  if (source == destination) {
    throw std::invalid_argument("Simulator::send: source == destination");
  }
  MessageRecord record;
  record.id = records_.size();
  record.source = source;
  record.destination = destination;
  record.send_time = at_time;
  records_.push_back(record);
  queue_.push(Event{at_time, next_seq_++, records_.size() - 1, source, {}});
  return record.id;
}

void Simulator::schedule(const FaultPlan& plan) {
  fault_schedule_.insert(fault_schedule_.end(), plan.events().begin(),
                         plan.events().end());
  fault_schedule_dirty_ = true;
}

void Simulator::fail_link(NodeId u, NodeId v) {
  failed_links_.insert(graph::edge_index(g_->node_count(), u, v));
}

void Simulator::restore_link(NodeId u, NodeId v) {
  failed_links_.erase(graph::edge_index(g_->node_count(), u, v));
}

bool Simulator::node_up(NodeId u) const { return !failed_nodes_.contains(u); }

bool Simulator::link_up(NodeId u, NodeId v) const {
  return node_up(u) && node_up(v) &&
         !failed_links_.contains(graph::edge_index(g_->node_count(), u, v));
}

void Simulator::apply_fault(const FaultEvent& e) {
  switch (e.kind) {
    case FaultKind::kLinkFail:
      fail_link(e.u, e.v);
      break;
    case FaultKind::kLinkRepair:
      restore_link(e.u, e.v);
      break;
    case FaultKind::kNodeFail:
      failed_nodes_.insert(e.u);
      break;
    case FaultKind::kNodeRepair:
      failed_nodes_.erase(e.u);
      break;
  }
}

void Simulator::apply_faults_until(std::uint64_t now) {
  while (fault_pos_ < fault_schedule_.size() &&
         fault_schedule_[fault_pos_].time <= now) {
    apply_fault(fault_schedule_[fault_pos_++]);
  }
}

std::uint64_t Simulator::link_load(NodeId u, NodeId v) const {
  const std::size_t arc = csr_.arc_index(u, v);
  return arc == graph::CsrGraph::kNoArc ? 0 : link_load_[arc];
}

std::optional<NodeId> Simulator::pick_next_hop(Event& e) {
  const MessageRecord& record = records_[e.record_index];
  const auto up = [this](NodeId a, NodeId b) { return link_up(a, b); };
  if (record.used_fallback) {
    // The message switched to sequential-search probing; the resilience
    // engine owns its routing from here on.
    return resilience_->fallback_hop(e.at, record.destination, e.header, up);
  }
  const NodeId dest_label = scheme_->label_of(record.destination);
  if (full_info_ != nullptr) {
    // Full-information rerouting: mask the down ports and take any
    // remaining shortest-path edge.
    const auto* fis =
        dynamic_cast<const schemes::FullInformationScheme*>(full_info_);
    if (fis != nullptr) {
      const auto& ports = fis->ports();
      std::vector<bool> down(ports.degree(e.at), false);
      bool any_down = false;
      for (graph::PortId p = 0; p < down.size(); ++p) {
        if (!link_up(e.at, ports.neighbor_at(e.at, p))) {
          down[p] = true;
          any_down = true;
        }
      }
      if (any_down) {
        const NodeId hop = fis->next_hop_avoiding(e.at, dest_label, down);
        if (hop == schemes::FullInformationScheme::kNoRoute) {
          return std::nullopt;
        }
        return hop;
      }
    }
  }
  const NodeId hop = scheme_->next_hop(e.at, dest_label, e.header);
  if (!link_up(e.at, hop)) return std::nullopt;
  return hop;
}

SimulationStats Simulator::run() {
  return run_core(std::numeric_limits<std::uint64_t>::max(), true);
}

SimulationStats Simulator::run_until(std::uint64_t limit) {
  return run_core(limit, false);
}

void Simulator::rebind(const model::RoutingScheme& scheme) {
  scheme_ = &scheme;
  full_info_ = dynamic_cast<const model::FullInformationRouting*>(&scheme);
  if (config_.resilience.policy != ResiliencePolicy::kNone) {
    resilience_ =
        std::make_unique<ResilienceEngine>(*g_, scheme, config_.resilience);
  }
  obs::MetricsRegistry::global().counter("sim.rebinds").inc();
}

SimulationStats Simulator::run_core(std::uint64_t limit, bool apply_trailing) {
  SimulationStats stats;
  // The event loop is strictly sequential, so fine-grained increments are
  // as deterministic as the loop itself; all handles target the global
  // registry resolved once per run.
  obs::TraceSpan span("net.simulator.run");
  auto& reg = obs::MetricsRegistry::global();
  const obs::Counter c_hops = reg.counter("sim.hops");
  const obs::Counter c_delivered = reg.counter("sim.delivered");
  const obs::Counter c_dropped = reg.counter("sim.dropped");
  const obs::Counter c_retries = reg.counter("sim.retries");
  const obs::Counter c_deflections = reg.counter("sim.deflections");
  const obs::Counter c_fallbacks = reg.counter("sim.fallback_messages");
  const obs::Histogram h_delivered_hops =
      reg.histogram("sim.delivered_hops", obs::hop_buckets());
  const std::size_t faults_before = fault_pos_;
  std::size_t queue_peak = queue_.size();
  if (fault_schedule_dirty_) {
    // Stable: events at equal times keep their schedule() order, so a fail
    // followed by a repair of the same link is a no-op.
    std::stable_sort(
        fault_schedule_.begin() + static_cast<std::ptrdiff_t>(fault_pos_),
        fault_schedule_.end(),
        [](const FaultEvent& a, const FaultEvent& b) { return a.time < b.time; });
    fault_schedule_dirty_ = false;
  }
  std::shared_ptr<const graph::DistanceMatrix> dist;
  if (config_.measure_stretch) {
    dist = graph::DistanceCache::global().get(*g_);
  }
  while (!queue_.empty() && queue_.top().time < limit) {
    queue_peak = std::max(queue_peak, queue_.size());
    Event e = queue_.top();
    queue_.pop();
    apply_faults_until(e.time);
    MessageRecord& record = records_[e.record_index];
    if (e.at == record.destination) {
      record.delivered = true;
      record.arrival_time = e.time;
      ++stats.delivered;
      c_delivered.inc();
      h_delivered_hops.observe(record.hops);
      stats.total_hops += record.hops;
      stats.makespan = std::max(stats.makespan, e.time);
      if (dist != nullptr) {
        stats.shortest_hops += dist->at(record.source, record.destination);
      }
      continue;
    }
    if (record.hops >= config_.max_hops) {
      ++stats.dropped;
      c_dropped.inc();
      continue;
    }
    std::optional<NodeId> hop = pick_next_hop(e);
    bool deflected = false;
    if (!hop.has_value() && resilience_ != nullptr) {
      const auto up = [this](NodeId a, NodeId b) { return link_up(a, b); };
      const ResilienceDecision decision = resilience_->on_blocked(
          e.at, record.destination, e.header, record.retries,
          record.used_fallback, up);
      switch (decision.action) {
        case ResilienceDecision::Action::kDrop:
          break;
        case ResilienceDecision::Action::kRetryLater:
          ++record.retries;
          ++stats.total_retries;
          c_retries.inc();
          queue_.push(Event{e.time + decision.delay, next_seq_++,
                            e.record_index, e.at, e.header});
          continue;
        case ResilienceDecision::Action::kForward:
          hop = decision.next;
          if (decision.entered_fallback) {
            record.used_fallback = true;
            ++stats.fallback_messages;
            c_fallbacks.inc();
          } else {
            deflected = decision.deflected;
          }
          break;
      }
    }
    if (!hop.has_value()) {
      record.dropped_on_failure = true;
      ++stats.dropped;
      c_dropped.inc();
      continue;
    }
    if (deflected) {
      ++record.deflections;
      ++stats.deflections;
      c_deflections.inc();
    }
    ++record.hops;
    c_hops.inc();
    e.header.came_from = e.at;
    const std::size_t arc = csr_.arc_index(e.at, *hop);
    if (arc == graph::CsrGraph::kNoArc) {
      throw std::logic_error(
          "Simulator: scheme returned a non-neighbour next hop");
    }
    const std::uint64_t load = ++link_load_[arc];
    stats.max_link_load = std::max(stats.max_link_load, load);
    std::uint64_t depart = e.time;
    if (config_.serialize_links) {
      std::uint64_t& free_at = link_free_at_[arc];
      depart = std::max(depart, free_at);
      free_at = depart + config_.link_latency;
    }
    queue_.push(Event{depart + config_.link_latency, next_seq_++,
                      e.record_index, *hop, e.header});
  }
  // Topology changes beyond the last message still take effect, so the
  // post-run link state matches the full plan. Sliced runs leave future
  // faults pending for the next slice instead.
  if (apply_trailing && fault_pos_ < fault_schedule_.size()) {
    apply_faults_until(fault_schedule_.back().time);
  }
  stats.sent = stats.delivered + stats.dropped;
  reg.counter("sim.sent").inc(stats.sent);
  reg.counter("sim.runs").inc();
  reg.counter(std::string("sim.runs.policy.") +
              to_string(config_.resilience.policy))
      .inc();
  reg.counter("sim.fault_events").inc(fault_pos_ - faults_before);
  reg.gauge("sim.queue_peak").set(static_cast<std::int64_t>(queue_peak));
  return stats;
}

}  // namespace optrt::net
