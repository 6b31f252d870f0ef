// CONGEST-style protocol runtime: per-node state machines driven by
// synchronous rounds over the graph's real links.
//
// The simulator (net/simulator.hpp) moves *traffic* through an already
// built scheme; this engine moves *protocol state* — it is the runtime on
// which the routing tables themselves are assembled in-network
// (net/construction.hpp, after Elkin-Neiman, "On Efficient Distributed
// Construction of Near Optimal Routing Schemes"). The model is the
// classic synchronous CONGEST model over the paper's model II networks:
//
//   · Every node runs the same ProtocolNode state machine, knowing only
//     n, its own id, and its sorted incident port list (model II grants
//     neighbour ids for free).
//   · Time advances in global rounds. A message sent in round r over port
//     p is delivered at the port-p neighbour in round r + 1, together
//     with every other message that arrives that round.
//   · Links are the graph's real edges in sorted port order; the seeded
//     FaultPlan machinery (net/faults.hpp) replays against the engine's
//     round clock through the engine's net::LiveTopology, the same fold
//     the Simulator uses, so construction can run on a faulty network:
//     fault events at time t apply before the round-t deliveries, and a
//     message crossing a down link is silently lost (the send is still
//     charged). Both arcs of a link share one liveness, so the check is one
//     O(1) read per delivered message.
//   · When the last activation charged no message the engine declares
//     *quiescence* and pulses every node's on_phase_end — the distributed
//     analogue of the known-bound phase padding the CONGEST literature
//     uses to separate protocol stages. Nodes open the next phase by
//     sending; the run ends when a pulse produces no node that wants to
//     continue. A send_all from a node without links charges nothing and
//     so keeps no round alive.
//
// Message plane: copy-free after the send, and nothing on the send,
// delivery or staging path allocates once the run's buffers have grown.
//   · Each contiguous range of an activation list owns one outbox (its
//     records plus a word buffer). send() copies the message's words into
//     that buffer once and queues one record; so does send_all(), whose
//     one record stands for a copy over every port. A record is a plain
//     struct — sender, port (or "every port"), type, bits, and the offset
//     and length of its words. Both sends charge `messages` and
//     `message_bits` as they queue: one message per port they cover.
//   · Two sets of outboxes alternate between activations. Delivery
//     counting-sorts straight from the set the last activation filled, in
//     range order, which is ascending sender order: a record expands over
//     its sender's CSR arcs, each arc giving the receiver, its liveness and
//     (from a per-arc table the Engine builds once) the arrival port. The
//     messages over live arcs go, stably by receiver, into one contiguous
//     Received array, so each inbox is a slice in (sender, send) order.
//   · A Received's words view the sender's outbox buffer, which the next
//     activation leaves alone (it fills the other set) and the one after
//     that overwrites: they are valid only during the on_round call that
//     receives them. A node copies what it keeps.
//
// Determinism contract (the congest-labelled tests enforce it at 1/2/8
// threads): node activations run on a core::ThreadPool, but delivery reads
// the outboxes in range order, which is ascending node order at any thread
// count; inboxes preserve (sender, send) order; all accounting is integer
// sums; and a phase row takes the last label in node order. So every
// RunStats field and every byte of protocol state is bit-identical for any
// `threads` value.
//
// Tracing: under an obs::TraceScope, run() records one net.congest.run
// span, one net.congest.round span per delivered round and one
// net.congest.pulse span per quiescence pulse, all on the calling thread.
//
// Accounting: `rounds` counts rounds in which at least one message was in
// flight (pulses are free — they stand in for locally-counted phase
// bounds and carry no traffic), `messages` counts point-to-point sends
// (dropped ones included: the sender paid for them), and `message_bits`
// sums the per-message charged payload widths declared by the protocol.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "graph/ports.hpp"
#include "net/faults.hpp"

namespace optrt::net::congest {

using graph::NodeId;
using graph::PortId;

/// One CONGEST message. `bits` is the *charged* payload width — protocols
/// declare what a real encoding would cost (e.g. an id flood charges
/// ⌈log₂ n⌉ even though `words` also carries a hop counter derivable from
/// the round number); the accounting tests pin these charges to the
/// closed forms documented in net/construction.hpp. `words` is a view:
/// send() copies it, and in a Received it views the sender's outbox, valid
/// only for the duration of the on_round call.
struct Message {
  std::uint16_t type = 0;
  std::uint32_t bits = 0;
  std::span<const std::uint32_t> words;
};

/// A delivered message, tagged with the arrival port at the receiver.
struct Received {
  PortId port = 0;
  Message msg;
};

class Engine;
/// One range's send buffer (defined in congest.cpp).
struct Outbox;

/// Per-activation view a node gets of itself and its links. Valid only
/// for the duration of the on_start/on_round/on_phase_end call.
class Context {
 public:
  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] std::size_t node_count() const noexcept;
  [[nodiscard]] std::size_t degree() const noexcept;
  /// Neighbour reached over port p (ports are sorted: port i = i-th least
  /// neighbour id, matching graph::PortAssignment::sorted).
  [[nodiscard]] NodeId neighbor(PortId p) const;
  /// Whether the port-p link is currently up (reflects every fault event
  /// applied so far; nodes use this for the audit-phase liveness checks).
  [[nodiscard]] bool port_up(PortId p) const;

  /// Queues m for delivery over port p next round (copies m.words).
  void send(PortId p, const Message& m);
  /// Queues one copy of m per incident port (one record, m.words stored
  /// once).
  void send_all(const Message& m);
  /// Names the current phase in the engine's per-phase stats breakdown
  /// (all nodes of a well-formed protocol pass the same label).
  void label_phase(std::string_view label);

 private:
  friend class Engine;
  Context(const Engine* eng, NodeId id, Outbox* out)
      : eng_(eng), id_(id), out_(out) {}

  /// Queues one record over port p (or every port) charged as `copies`
  /// messages, copying m.words into the outbox buffer.
  void queue(PortId p, const Message& m, std::size_t copies);

  const Engine* eng_;
  NodeId id_;
  Outbox* out_;
};

/// A node's protocol state machine. The engine owns the schedule; the
/// node owns its state and may touch nothing but its Context (nodes run
/// concurrently — sharing mutable state across nodes breaks both the
/// model and the thread-determinism contract).
class ProtocolNode {
 public:
  virtual ~ProtocolNode() = default;
  /// Round 0: initial sends.
  virtual void on_start(Context&) {}
  /// Called whenever the node receives at least one message. The inbox
  /// and every msg.words in it are valid only during this call.
  virtual void on_round(Context&, std::span<const Received> inbox) = 0;
  /// Called at quiescence. Return true to keep the protocol running
  /// (typically opening the next phase with fresh sends); the run ends at
  /// the first pulse where every node returns false.
  virtual bool on_phase_end(Context&) { return false; }
};

/// Why a run ended.
enum class RunStatus : std::uint8_t {
  kOk,          ///< every node declined to continue at a pulse
  kRoundLimit,  ///< max_rounds exhausted — the protocol stalled
  kPhaseLimit,  ///< max_phases exhausted — a pulse loop never converged
};
[[nodiscard]] const char* to_string(RunStatus status) noexcept;

/// Traffic breakdown of one phase (quiescence to quiescence).
struct PhaseStats {
  std::string label;
  std::size_t rounds = 0;
  std::size_t messages = 0;
  std::uint64_t message_bits = 0;
  std::size_t dropped = 0;
};

struct RunStats {
  RunStatus status = RunStatus::kOk;
  std::size_t rounds = 0;    ///< rounds with messages in flight
  std::size_t phases = 0;    ///< quiescence pulses taken
  std::size_t messages = 0;  ///< point-to-point sends (dropped included)
  std::size_t dropped = 0;   ///< sends lost to down links
  std::uint64_t message_bits = 0;
  std::vector<PhaseStats> phase_stats;
};

struct EngineOptions {
  /// ThreadPool width for node activations (0 = core::default_threads();
  /// results are bit-identical for every value).
  std::size_t threads = 0;
  /// Round budget; 0 = 64·n + 256. Exceeding it is a typed failure
  /// (kRoundLimit), never a hang.
  std::size_t max_rounds = 0;
  /// Pulse budget; 0 = 8·n + 512.
  std::size_t max_phases = 0;
};

/// The synchronous scheduler. Construct over a graph, optionally schedule
/// fault plans, then run() a vector of per-node state machines.
class Engine {
 public:
  explicit Engine(const graph::Graph& g, EngineOptions options = {});

  /// Adds a plan's events to the replay schedule (times are engine
  /// rounds; events at time t apply before the round-t deliveries).
  void schedule(const FaultPlan& plan) { live_.schedule(plan); }

  /// Runs nodes[v] as node v until quiescent completion or a budget
  /// limit. `nodes` must have exactly node_count() entries.
  RunStats run(std::span<ProtocolNode* const> nodes);

 private:
  friend class Context;

  [[nodiscard]] const graph::Graph& graph() const noexcept {
    return live_.base();  // port p of u = neighbor_at(u, p)
  }

  LiveTopology live_;
  EngineOptions options_;
  /// far_port_[arc_begin(u) + p]: the port of u at neighbor_at(u, p).
  std::vector<PortId> far_port_;
};

}  // namespace optrt::net::congest
