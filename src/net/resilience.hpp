// Resilience policies for schemes that are *not* full-information.
//
// A full-information scheme (Theorem 10) reroutes by construction: its
// routing function names every shortest-path port, so the carrier just
// masks the down ones. Single-path schemes (Theorems 1–5) name exactly one
// port per destination and drop on a down link. This layer gives them the
// recovery behaviours real routers bolt on:
//
//   kRetry              bounded retry with exponential backoff — waits for
//                       a repair instead of dropping;
//   kDeflect            forward out an alternate up port (the scheme's own
//                       port enumeration when it exposes one, else the
//                       carrier's model-II sorted neighbour view);
//   kSequentialFallback switch the message to Theorem 5's sequential-search
//                       probing with down ports masked — zero extra stored
//                       bits, header state only.
//
// The layer reads the carrier's net::LiveTopology, the one fold of the
// FaultPlan the simulator replays, so every decision sees the link state
// at the moment the message is blocked.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "graph/graph.hpp"
#include "model/scheme.hpp"
#include "net/faults.hpp"

namespace optrt::net {

using graph::NodeId;

enum class ResiliencePolicy : std::uint8_t {
  kNone,
  kRetry,
  kDeflect,
  kSequentialFallback,
};

[[nodiscard]] const char* to_string(ResiliencePolicy policy) noexcept;
[[nodiscard]] std::optional<ResiliencePolicy> parse_resilience_policy(
    std::string_view name) noexcept;

struct ResilienceConfig {
  ResiliencePolicy policy = ResiliencePolicy::kNone;
  /// kRetry: attempts before giving up; attempt k waits
  /// max(1, backoff_base << k) time units.
  std::uint32_t max_retries = 4;
  std::uint64_t backoff_base = 2;
};

/// What to do with a message whose primary next hop is unusable.
struct ResilienceDecision {
  enum class Action : std::uint8_t {
    kDrop,        ///< no recovery possible under the policy
    kForward,     ///< send to `next` now
    kRetryLater,  ///< re-present the message after `delay`
  };
  Action action = Action::kDrop;
  NodeId next = 0;
  std::uint64_t delay = 0;
  bool deflected = false;         ///< kForward via an alternate port
  bool entered_fallback = false;  ///< kForward via sequential-search mode
};

/// Policy engine for one scheme. Stateless per message — all per-message
/// state lives in the carrier's record and MessageHeader, so one engine
/// serves any number of concurrent messages. Every decision reads the
/// graph and its current link state from the carrier's LiveTopology.
class ResilienceEngine {
 public:
  ResilienceEngine(const model::RoutingScheme& scheme, ResilienceConfig config);

  /// Decides for a message blocked at `at` (primary hop down or absent).
  /// `retries` is the message's retry count so far; `in_fallback` is true
  /// once the message switched to sequential-search mode.
  [[nodiscard]] ResilienceDecision on_blocked(NodeId at, NodeId destination,
                                              model::MessageHeader& header,
                                              std::uint32_t retries,
                                              bool in_fallback,
                                              const LiveTopology& live) const;

  /// Next hop for a message in sequential-search fallback mode: Theorem 5's
  /// probe walk with down ports masked. Returns nullopt when the probe
  /// space is exhausted (message undeliverable under the policy).
  [[nodiscard]] std::optional<NodeId> fallback_hop(
      NodeId at, NodeId destination, model::MessageHeader& header,
      const LiveTopology& live) const;

  [[nodiscard]] const ResilienceConfig& config() const noexcept {
    return config_;
  }

 private:
  /// First usable deflection target at `at`: the scheme's port enumeration
  /// when exposed, else the sorted neighbour list; prefers ports other
  /// than the arrival link to damp ping-pong loops.
  [[nodiscard]] std::optional<NodeId> deflect(NodeId at, NodeId came_from,
                                              const LiveTopology& live) const;

  const model::RoutingScheme* scheme_;
  ResilienceConfig config_;
};

}  // namespace optrt::net
