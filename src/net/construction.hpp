// Distributed construction of routing tables, running as real CONGEST
// protocols on net/congest.hpp (after Elkin-Neiman, "On Efficient
// Distributed Construction of Near Optimal Routing Schemes"): every table
// bit below is assembled locally at its node from received messages only,
// then stitched into the existing RoutingScheme types and certified with
// verify_scheme / verify_scheme_stretch. The congest-labelled tests hold
// the fault-free protocols bit-identical to the centralized builders and
// pin the traffic accounting to the closed forms documented here.
//
// Three protocols:
//
//   · distributed_compact_construction — Theorem 1 compact tables. One
//     synchronous round: every node sends its neighbour list over every
//     incident edge (model II grants the lists themselves for free),
//     after which each node holds its exact 2-hop view — everything the
//     Theorem 1 builder consumes — and builds its table locally.
//       rounds = 1, messages = 2|E|, bits = Σ_v d(v)² · ⌈log₂ n⌉.
//
//   · distributed_tz_construction — genuine per-node Thorup-Zwick k = 2
//     labels/tables. Phases (W = ⌈log₂(n+1)⌉, I = ⌈log₂ n⌉):
//       tree      BFS tree from node 0, a claim round, and a
//                 convergecast/broadcast of Σd(v) (the degree tilt needs
//                 the average degree); 3·ecc(0) + 2 rounds,
//                 2|E| + 3(n−1) messages, 2|E|·W + 4(n−1)·W bits.
//       election  each node replays the shared-seed coin stream locally
//                 (draw a·n + v of mt19937_64(seed) against
//                 p_v = min(1, √(ln n / n) · d(v)/avg)) — no traffic.
//       flood     every landmark BFS-floods its id; each node learns
//                 d(v, l), d(v, A), and its landmark ports (least parent
//                 on ties); max_l ecc(l) + 1 rounds (the +1 drains the
//                 frontier's duplicate forwards), |A|·2|E| messages of I
//                 bits.
//       announce  every non-landmark v floods (v, d(v, A)) through its
//                 strict ball {x : d(v, x) < d(v, A)}; max_v d(v, A)
//                 rounds, Σ_v Σ_{x : d(v,x)<d(v,A)} d(x) messages of
//                 I + W bits.
//       veto      any node whose cluster exceeds the 4√(n ln n) cap
//                 floods its size; a clean pass accepts the attempt, a
//                 veto resamples (the engine replays the centralized
//                 best-attempt/degenerate-fallback rules locally).
//       register  each v floods a registration up the shortest-path DAG
//                 toward l(v) (forwarding to every BFS parent), so l(v)
//                 hears from exactly its shortest-path successors toward
//                 v and learns the label exit port (least id); max_v
//                 d(v, l(v)) rounds, 2·I bits per message.
//       audit     one round: neighbours exchange landmark-distance
//                 vectors and cluster entries; Lipschitz (|Δd| ≤ 1),
//                 completeness, and port-liveness violations become
//                 typed failures. 2|E| messages,
//                 Σ_u d(u)·(2W + |A|·(I+W) + (|C(u)|+[u∉A])·(I+2W)) bits.
//
//   · distributed_full_table_construction — the oracle protocol for
//     small n: all n BFS floods run simultaneously, every node records
//     (distance, least parent port) per source and writes the full-table
//     rows locally; diameter + 1 rounds, n·2|E| messages of I bits, plus
//     an audit round of 2|E| messages and Σ_u d(u)·(W + n·(I+W)) bits.
//
// One driver runs all three: it holds the protocol's nodes by value, runs
// them on the engine, and fills one report type, ProtocolReport, which
// ConstructionResult (compact and full-table) and TzConstructionResult
// extend with their tables. The protocol then builds its tables locally
// from its nodes' state, and the driver books the construction.<proto>.*
// counters once per build from the final report: builds, rounds,
// messages, message_bits, and failures when the status is not kOk. A
// fault-free compact build that throws SchemeInapplicable is booked as one
// build and one failure first.
//
// Fault behaviour: pass a seeded FaultPlan through ProtocolOptions and
// the protocols run on the degraded network. Each run either converges
// to tables the audit phase accepts (transient faults: repaired links,
// re-merged floods) or reports a typed, deterministic ConstructStatus —
// never a crash, never a hang (the engine's round budget converts stalls
// into kStalled). Message loss is charged to the sender; `dropped`
// reports it.
//
// Tracing: under an obs::TraceScope each protocol records one span,
// net.construct.compact, net.construct.full_table or net.construct.tz,
// around the engine's net.congest.* spans, plus one net.construct.encode
// child around its post-run table encode (and, for TZ, the scheme build).
//
// TZ exit ports: a fault during the registration flood can pass the audit
// and still leave l(v) without v's label exit port (no registration
// arrived) or holding a non-least successor's port (the least one's copy
// was lost). Each learned port is held to the decoded TzScheme's label: a
// missing one is kIncompleteInfo, a different one kInconsistent, the
// detail names the least such v, and the scheme is null.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bitio/bit_vector.hpp"
#include "graph/graph.hpp"
#include "net/congest.hpp"
#include "net/faults.hpp"
#include "schemes/compact_node.hpp"
#include "schemes/tz.hpp"

namespace optrt::net {

/// Why a distributed build did not produce certified tables. Ordered by
/// severity; when nodes disagree the report keeps the worst.
enum class ConstructStatus : std::uint8_t {
  kOk = 0,
  kInapplicable,     ///< construction precondition fails on the topology
  kIncompleteInfo,   ///< a node ended without inputs its table needs
  kInconsistent,     ///< the audit phase found disagreeing neighbour state
  kTopologyChanged,  ///< a link was still down at table-audit time
  kInvalidTables,    ///< stitched tables failed scheme validation
  kStalled,          ///< engine round/phase budget exhausted
};
[[nodiscard]] const char* to_string(ConstructStatus status) noexcept;

/// Runtime knobs shared by the three protocols.
struct ProtocolOptions {
  /// Optional fault schedule replayed against the engine's round clock
  /// (null = fault-free network).
  const FaultPlan* faults = nullptr;
  /// Engine thread count (0 = default); results are bit-identical for
  /// every value.
  std::size_t threads = 0;
  /// Engine round budget (0 = 64·n + 256).
  std::size_t max_rounds = 0;
};

/// What every protocol reports: its outcome and the engine run's traffic,
/// as the one driver fills them (see above). Unless the status is kOk,
/// node_tables is empty and TZ's scheme is null.
struct ProtocolReport {
  ConstructStatus status = ConstructStatus::kOk;
  std::string detail;
  /// Synchronous rounds with messages in flight.
  std::size_t rounds = 0;
  /// Point-to-point messages sent, dropped ones included.
  std::size_t messages = 0;
  /// Total charged payload bits.
  std::uint64_t message_bits = 0;
  /// Messages lost to down links (0 on a fault-free network).
  std::size_t dropped = 0;
  /// Quiescence pulses the engine took.
  std::size_t phases = 0;
  /// Per-phase traffic, quiescence to quiescence (rejected TZ attempts
  /// included).
  std::vector<congest::PhaseStats> phase_stats;
};

/// The compact and full-table protocols' report: per-node serialized
/// tables, bit-identical to the centralized builder on the full graph
/// (schemes::build_compact_node, schemes::FullTableScheme::standard).
struct ConstructionResult : ProtocolReport {
  std::vector<bitio::BitVector> node_tables;
};

/// Runs the one-round neighbour-exchange protocol and builds every node's
/// compact table from its local 2-hop view only. On a fault-free network
/// throws schemes::SchemeInapplicable where the centralized construction
/// would (some node's cover incomplete); with faults scheduled the same
/// condition — and any dropped neighbour list — becomes a typed status.
[[nodiscard]] ConstructionResult distributed_compact_construction(
    const graph::Graph& g, const schemes::CompactNodeOptions& options = {},
    const ProtocolOptions& protocol = {});

/// Runs all n BFS floods simultaneously and writes every node's
/// full-table row locally — the always-applicable oracle protocol (the
/// in-network analogue of FullTableScheme::standard, intended for small
/// n: traffic is n·2|E| messages).
[[nodiscard]] ConstructionResult distributed_full_table_construction(
    const graph::Graph& g, const ProtocolOptions& protocol = {});

struct TzConstructionResult : ProtocolReport {
  /// The stitched scheme (null unless status == kOk): each node's learned
  /// landmark ports and cluster entries, written by the same node-table
  /// encoder the centralized build uses (schemes::build_landmark_node_bits)
  /// and validated by the TzScheme deserialization constructor.
  /// Bit-identical to a centralized schemes::TzScheme build with the same
  /// options on a fault-free network.
  std::unique_ptr<schemes::TzScheme> scheme;
  std::size_t landmark_count = 0;
  /// 0-based index of the accepted election attempt; matches the
  /// centralized resample loop.
  std::size_t accepted_attempt = 0;
  /// Per-phase round counts for the accepted attempt (the property tests
  /// pin these to the eccentricity/handoff-radius forms above).
  std::size_t tree_rounds = 0;
  std::size_t flood_rounds = 0;
  std::size_t announce_rounds = 0;
  std::size_t register_rounds = 0;
  std::size_t audit_rounds = 0;
  /// Nearest landmark as learned in-network by each node.
  std::vector<graph::NodeId> landmark_of;
  /// Label exit port per destination v, as learned at l(v) from the
  /// registration flood (0 for landmarks themselves, and where l(v) never
  /// learned it).
  std::vector<graph::PortId> exit_ports;
};

/// Elects a Thorup-Zwick landmark set in-network and assembles every
/// node's k = 2 labels/tables from received messages only (phases above).
/// Throws schemes::SchemeInapplicable on disconnected graphs (mirroring
/// the centralized constructor's precondition), before any round runs and
/// before any counter is booked.
[[nodiscard]] TzConstructionResult distributed_tz_construction(
    const graph::Graph& g, const schemes::TzOptions& options = {},
    const ProtocolOptions& protocol = {});

}  // namespace optrt::net
