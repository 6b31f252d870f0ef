#include "net/resilience.hpp"

#include <algorithm>
#include <span>

#include "schemes/sequential_search.hpp"

namespace optrt::net {

const char* to_string(ResiliencePolicy policy) noexcept {
  switch (policy) {
    case ResiliencePolicy::kNone:
      return "none";
    case ResiliencePolicy::kRetry:
      return "retry";
    case ResiliencePolicy::kDeflect:
      return "deflect";
    case ResiliencePolicy::kSequentialFallback:
      return "fallback";
  }
  return "?";
}

std::optional<ResiliencePolicy> parse_resilience_policy(
    std::string_view name) noexcept {
  if (name == "none") return ResiliencePolicy::kNone;
  if (name == "retry") return ResiliencePolicy::kRetry;
  if (name == "deflect") return ResiliencePolicy::kDeflect;
  if (name == "fallback") return ResiliencePolicy::kSequentialFallback;
  return std::nullopt;
}

ResilienceEngine::ResilienceEngine(const model::RoutingScheme& scheme,
                                   ResilienceConfig config)
    : scheme_(&scheme), config_(config) {}

ResilienceDecision ResilienceEngine::on_blocked(
    NodeId at, NodeId destination, model::MessageHeader& header,
    std::uint32_t retries, bool in_fallback, const LiveTopology& live) const {
  ResilienceDecision decision;  // default: drop
  switch (config_.policy) {
    case ResiliencePolicy::kNone:
      return decision;
    case ResiliencePolicy::kRetry: {
      if (retries >= config_.max_retries) return decision;
      decision.action = ResilienceDecision::Action::kRetryLater;
      decision.delay =
          std::max<std::uint64_t>(1, config_.backoff_base << retries);
      return decision;
    }
    case ResiliencePolicy::kDeflect: {
      const std::optional<NodeId> alt = deflect(at, header.came_from, live);
      if (!alt.has_value()) return decision;
      decision.action = ResilienceDecision::Action::kForward;
      decision.next = *alt;
      decision.deflected = true;
      return decision;
    }
    case ResiliencePolicy::kSequentialFallback: {
      if (in_fallback) return decision;  // probe space already exhausted
      // Restart the message as a fresh sequential-search source here; the
      // primary scheme's header scratch is dead state from now on.
      header.phase = schemes::SequentialSearchScheme::kAtSource;
      header.probe_index = 0;
      const std::optional<NodeId> hop =
          fallback_hop(at, destination, header, live);
      if (!hop.has_value()) return decision;
      decision.action = ResilienceDecision::Action::kForward;
      decision.next = *hop;
      decision.entered_fallback = true;
      return decision;
    }
  }
  return decision;
}

std::optional<NodeId> ResilienceEngine::fallback_hop(
    NodeId at, NodeId destination, model::MessageHeader& header,
    const LiveTopology& live) const {
  // Theorem 5's constant routing function with down ports masked: deliver
  // directly over an up link, otherwise probe the least *reachable*
  // neighbours in order, bouncing unsuccessful probes back over the
  // arrival link. Same header protocol (phase + probe_index) as
  // schemes::SequentialSearchScheme.
  using SS = schemes::SequentialSearchScheme;
  if (live.link_live(at, destination)) {
    header.phase = SS::kAtSource;
    return destination;
  }
  const graph::Graph& g = live.base();
  const auto nbrs = g.neighbors(at);
  const auto launch_from = [&](std::size_t start) -> std::optional<NodeId> {
    for (std::size_t i = start; i < nbrs.size(); ++i) {
      if (live.arc_live(g.arc_begin(at) + i)) {
        header.phase = SS::kProbing;
        header.probe_index = static_cast<std::uint32_t>(i);
        return nbrs[i];
      }
    }
    return std::nullopt;
  };
  switch (header.phase) {
    case SS::kAtSource:
      return launch_from(0);
    case SS::kProbing:
      // A probe arrived and the destination is not deliverable from here:
      // bounce it back — unless the arrival link died under the probe.
      if (live.link_live(at, header.came_from)) {
        header.phase = SS::kReturning;
        return header.came_from;
      }
      return std::nullopt;
    case SS::kReturning:
      return launch_from(static_cast<std::size_t>(header.probe_index) + 1);
    default:
      return std::nullopt;
  }
}

std::optional<NodeId> ResilienceEngine::deflect(
    NodeId at, NodeId came_from, const LiveTopology& live) const {
  const std::vector<NodeId> enumerated = scheme_->port_enumeration(at);
  const auto nbrs = live.base().neighbors(at);
  const auto candidates =
      enumerated.empty()
          ? std::span<const NodeId>(nbrs)
          : std::span<const NodeId>(enumerated);
  // Prefer an up port that is not the arrival link (damps two-node
  // ping-pong); accept bouncing back only as the last resort.
  std::optional<NodeId> back;
  for (NodeId c : candidates) {
    if (!live.link_live(at, c)) continue;
    if (c == came_from) {
      back = c;
      continue;
    }
    return c;
  }
  return back;
}

}  // namespace optrt::net
