// The CONGEST construction differential: tables assembled in-network by
// net/construction.cpp must match the centralized builders exactly —
// bit-identical serialized tables for the compact and full-table
// protocols, bit-identical TzScheme state (landmark set, per-node bits,
// nearest landmarks, label exit ports) plus identical FNV route
// fingerprints over the full pair space for TZ — across TopologyFamily
// specs and at 1/2/8 engine threads. The property half pins the runtime's
// round/message/bit accounting to the closed forms documented in
// net/construction.hpp, predicted independently from the distance matrix.
// The engine half drives the message plane with a synthetic protocol and
// holds every inbox to a plain reference model, checks that a send_all
// from a node without links keeps no round alive and that endless pulses
// end in the phase limit, pins what the constructions' shared driver
// reports and books when a build stalls or throws, and checks the
// engine's and the constructions' trace spans against their run
// statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bitio/codes.hpp"
#include "core/optrt.hpp"
#include "net/congest.hpp"
#include "net/construction.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace optrt {
namespace {

using graph::Graph;
using graph::NodeId;
using graph::Rng;
using graph::TopologyFamily;

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

/// FNV over every ordered pair's full hop sequence. (Named distinctly from
/// model::route_fingerprint, which ADL would otherwise find via the scheme's
/// base class and make the call ambiguous.)
std::uint64_t pairwise_route_fingerprint(const graph::Graph& g,
                                         const model::RoutingScheme& scheme) {
  const std::size_t n = g.node_count();
  std::uint64_t outer = kFnvBasis;
  for (NodeId u = 0; u < n; ++u) {
    std::uint64_t h = kFnvBasis;
    for (NodeId v = 0; v < n; ++v) {
      if (u == v) continue;
      model::MessageHeader header;
      NodeId at = u;
      for (std::size_t hops = 0; at != v && hops <= n; ++hops) {
        at = scheme.next_hop(at, scheme.label_of(v), header);
        h = fnv1a(h, at);
      }
    }
    outer = fnv1a(outer, h);
  }
  return outer;
}

/// First seed ≥ base whose family member is connected (deterministic).
Graph connected_member(const TopologyFamily& family, std::size_t n,
                       std::uint64_t base) {
  for (std::uint64_t seed = base;; ++seed) {
    Graph g = family.make(n, seed);
    if (graph::is_connected(g)) return g;
  }
}

const net::congest::PhaseStats& row(
    const std::vector<net::congest::PhaseStats>& rows,
    const std::string& label) {
  for (const auto& r : rows) {
    if (r.label == label) return r;
  }
  ADD_FAILURE() << "no phase row labelled " << label;
  static const net::congest::PhaseStats empty;
  return empty;
}

// --- Compact: bit-identical on dense (diameter ≤ 2) families --------------

TEST(CongestDifferential, CompactBitIdenticalAcrossFamilies) {
  std::vector<std::pair<std::string, Graph>> graphs;
  for (const auto& family :
       {TopologyFamily::uniform(), TopologyFamily::gnp(0.5),
        TopologyFamily::gnp(0.7), TopologyFamily::gnp(0.9)}) {
    graphs.emplace_back(family.name(), family.make(48, 404));
  }
  // Certified G(n, ½) members, the graphs Theorem 1 is stated for.
  for (const std::size_t n : {48, 64, 96}) {
    Rng rng(n + 1007);
    graphs.emplace_back("certified n=" + std::to_string(n),
                        core::certified_random_graph(n, rng));
  }
  for (const auto& [name, g] : graphs) {
    SCOPED_TRACE(name);
    const auto built = net::distributed_compact_construction(g);
    ASSERT_EQ(built.status, net::ConstructStatus::kOk);
    EXPECT_EQ(built.rounds, 1u);
    for (NodeId u = 0; u < g.node_count(); ++u) {
      EXPECT_EQ(built.node_tables[u], schemes::build_compact_node(g, u, {}).bits)
          << "node " << u;
    }
    const schemes::CompactDiam2Scheme scheme(
        g, {}, std::vector<bitio::BitVector>(built.node_tables));
    const auto verdict = model::verify_scheme(g, scheme);
    EXPECT_TRUE(verdict.ok());
    EXPECT_EQ(verdict.max_stretch, 1.0);
  }
}

// --- Full table: bit-identical on sparse families -------------------------

TEST(CongestDifferential, FullTableBitIdenticalAcrossFamilies) {
  const std::size_t n = 40;
  const std::vector<TopologyFamily> families = {
      TopologyFamily::grid(), TopologyFamily::ring(),
      TopologyFamily::power_law(2), TopologyFamily::config_model(2.1, 2)};
  for (const auto& family : families) {
    SCOPED_TRACE(family.name());
    const Graph g = connected_member(family, n, 405);
    const auto built = net::distributed_full_table_construction(g);
    ASSERT_EQ(built.status, net::ConstructStatus::kOk);
    const auto central = schemes::FullTableScheme::standard(g);
    for (NodeId u = 0; u < n; ++u) {
      EXPECT_EQ(built.node_tables[u], central.function_bits(u)) << "node " << u;
    }
    const schemes::FullTableScheme scheme(
        g, graph::PortAssignment::sorted(g), graph::Labeling::identity(n),
        model::kIAalpha, std::vector<bitio::BitVector>(built.node_tables));
    const auto verdict = model::verify_scheme(g, scheme);
    EXPECT_TRUE(verdict.ok());
    EXPECT_EQ(verdict.max_stretch, 1.0);
  }
}

// --- TZ: scheme-equivalent with identical route fingerprints --------------

TEST(CongestDifferential, TzMatchesCentralizedAcrossFamilies) {
  const std::size_t n = 48;
  const std::vector<TopologyFamily> families = {
      TopologyFamily::power_law(2), TopologyFamily::config_model(2.1, 2),
      TopologyFamily::grid(), TopologyFamily::ring()};
  for (const auto& family : families) {
    SCOPED_TRACE(family.name());
    const Graph g = connected_member(family, n, 406);
    schemes::TzOptions opt;
    opt.seed = 17;
    const auto built = net::distributed_tz_construction(g, opt);
    ASSERT_EQ(built.status, net::ConstructStatus::kOk) << built.detail;
    ASSERT_NE(built.scheme, nullptr);

    const schemes::TzScheme central(g, opt);
    ASSERT_EQ(built.scheme->landmarks(), central.landmarks());
    EXPECT_EQ(built.landmark_count, central.landmarks().size());
    for (NodeId u = 0; u < n; ++u) {
      EXPECT_EQ(built.scheme->function_bits(u), central.function_bits(u))
          << "node " << u;
      EXPECT_EQ(built.landmark_of[u], central.landmark_of(u)) << "node " << u;
    }

    // Exit ports learned at landmarks from the registration flood equal
    // the centralized choice: port toward the least shortest-path
    // successor of l(v) toward v.
    const auto dist_cached = graph::DistanceCache::global().get(g);
    const auto ports = graph::PortAssignment::sorted(g);
    for (NodeId v = 0; v < n; ++v) {
      const NodeId l = central.landmark_of(v);
      if (l == v) {
        EXPECT_EQ(built.exit_ports[v], 0u);
        continue;
      }
      const auto succ = graph::shortest_path_successors(g, *dist_cached, l, v);
      EXPECT_EQ(built.exit_ports[v], ports.port_of(l, succ.front()))
          << "dest " << v;
    }

    EXPECT_EQ(pairwise_route_fingerprint(g, *built.scheme),
              pairwise_route_fingerprint(g, central));
    EXPECT_TRUE(model::verify_scheme_stretch(g, *built.scheme, 3.0).ok());
  }
}

// --- Thread-count invariance ----------------------------------------------

TEST(CongestDifferential, BitIdenticalAtOneTwoEightThreads) {
  const std::size_t n = 48;
  const Graph dense = TopologyFamily::uniform().make(n, 404);
  const Graph sparse = connected_member(TopologyFamily::power_law(2), n, 406);

  const auto compact1 =
      net::distributed_compact_construction(dense, {}, {.threads = 1});
  const auto full1 = net::distributed_full_table_construction(sparse,
                                                              {.threads = 1});
  schemes::TzOptions tz_opt;
  tz_opt.seed = 17;
  const auto tz1 =
      net::distributed_tz_construction(sparse, tz_opt, {.threads = 1});
  ASSERT_EQ(tz1.status, net::ConstructStatus::kOk);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(threads);
    const auto compact =
        net::distributed_compact_construction(dense, {}, {.threads = threads});
    EXPECT_EQ(compact.node_tables, compact1.node_tables);
    EXPECT_EQ(compact.messages, compact1.messages);
    EXPECT_EQ(compact.message_bits, compact1.message_bits);

    const auto full =
        net::distributed_full_table_construction(sparse, {.threads = threads});
    EXPECT_EQ(full.node_tables, full1.node_tables);
    EXPECT_EQ(full.messages, full1.messages);
    EXPECT_EQ(full.message_bits, full1.message_bits);

    const auto tz =
        net::distributed_tz_construction(sparse, tz_opt, {.threads = threads});
    ASSERT_EQ(tz.status, net::ConstructStatus::kOk);
    ASSERT_EQ(tz.scheme->landmarks(), tz1.scheme->landmarks());
    for (NodeId u = 0; u < n; ++u) {
      EXPECT_EQ(tz.scheme->function_bits(u), tz1.scheme->function_bits(u));
    }
    EXPECT_EQ(tz.rounds, tz1.rounds);
    EXPECT_EQ(tz.messages, tz1.messages);
    EXPECT_EQ(tz.message_bits, tz1.message_bits);
    EXPECT_EQ(tz.accepted_attempt, tz1.accepted_attempt);
  }
}

// --- Engine behaviour ------------------------------------------------------

TEST(CongestEngine, ExhaustedRoundBudgetIsATypedFailureNotAHang) {
  const Graph g = connected_member(TopologyFamily::grid(), 36, 1);
  const auto full = net::distributed_full_table_construction(g,
                                                             {.max_rounds = 2});
  EXPECT_EQ(full.status, net::ConstructStatus::kStalled);
  EXPECT_EQ(full.detail, "round-limit");
  EXPECT_TRUE(full.node_tables.empty());
  const auto tz = net::distributed_tz_construction(g, {}, {.max_rounds = 2});
  EXPECT_EQ(tz.status, net::ConstructStatus::kStalled);
  EXPECT_EQ(tz.detail, "round-limit");
  EXPECT_EQ(tz.scheme, nullptr);
}

TEST(CongestEngine, DisconnectedTzStillThrowsLikeTheCentralizedBuilder) {
  EXPECT_THROW((void)net::distributed_tz_construction(graph::Graph(8)),
               schemes::SchemeInapplicable);
}

TEST(CongestEngine, FailedBuildsBookOneBuildAndOneFailure) {
  // A stalled run and a fault-free compact build that throws where the
  // centralized builder would each book one build and one failure under
  // construction.<proto>.*; a disconnected TZ graph throws before any
  // round runs and books nothing.
  const Graph g = connected_member(TopologyFamily::grid(), 36, 1);
  using Booked = std::pair<std::uint64_t, std::uint64_t>;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE(threads);
    obs::ScopedRegistry scope;
    const auto booked = [&](const std::string& proto) {
      const std::string base = "construction." + proto;
      return Booked{scope.registry().counter_value(base + ".builds"),
                    scope.registry().counter_value(base + ".failures")};
    };
    const net::ProtocolOptions stall{.threads = threads, .max_rounds = 2};
    EXPECT_EQ(net::distributed_full_table_construction(g, stall).status,
              net::ConstructStatus::kStalled);
    EXPECT_EQ(net::distributed_tz_construction(g, {}, stall).status,
              net::ConstructStatus::kStalled);
    EXPECT_THROW((void)net::distributed_compact_construction(
                     graph::chain(10), {}, {.threads = threads}),
                 schemes::SchemeInapplicable);
    EXPECT_EQ(booked("full_table"), Booked(1, 1));
    EXPECT_EQ(booked("tz"), Booked(1, 1));
    EXPECT_EQ(booked("compact"), Booked(1, 1));
    EXPECT_THROW((void)net::distributed_tz_construction(graph::Graph(8), {},
                                                        {.threads = threads}),
                 schemes::SchemeInapplicable);
    EXPECT_EQ(booked("tz"), Booked(1, 1));
  }
}

/// Asks to continue at every pulse and never sends.
class RestlessNode final : public net::congest::ProtocolNode {
 public:
  void on_round(net::congest::Context&,
                std::span<const net::congest::Received>) override {}
  bool on_phase_end(net::congest::Context&) override { return true; }
};

TEST(CongestEngine, EndlessPulsesEndInThePhaseLimit) {
  const Graph g = connected_member(TopologyFamily::ring(), 12, 1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE(threads);
    std::vector<RestlessNode> nodes(g.node_count());
    std::vector<net::congest::ProtocolNode*> ptrs;
    for (RestlessNode& node : nodes) ptrs.push_back(&node);
    const auto stats = net::congest::Engine(g, {.threads = threads}).run(ptrs);
    EXPECT_EQ(stats.status, net::congest::RunStatus::kPhaseLimit);
    EXPECT_STREQ(net::congest::to_string(stats.status), "phase-limit");
    EXPECT_EQ(stats.rounds, 0u);
    EXPECT_EQ(stats.messages, 0u);
    EXPECT_EQ(stats.message_bits, 0u);
  }
}

// --- Engine message plane: a synthetic protocol against a reference model -

/// One message as its receiver saw it.
struct Seen {
  graph::PortId port = 0;
  std::uint16_t type = 0;
  std::uint32_t bits = 0;
  std::vector<std::uint32_t> words;

  friend bool operator==(const Seen&, const Seen&) = default;
};

constexpr std::uint32_t kEveryPort = ~std::uint32_t{0};
constexpr std::uint32_t kLastStep = 2;  // sends at steps 0–2, receives 1–3

/// One of node u's own sends at `step` (0 = on_start, r = after round r):
/// over `port`, or over every port through send_all.
struct OwnSend {
  std::uint32_t port = 0;
  std::uint16_t type = 0;
  std::uint32_t bits = 0;
  std::vector<std::uint32_t> words;
};

/// u's own sends at `step`: one send per port, with lengths that vary
/// with (u, port, step) and include 0 and several hundred words, then one
/// send_all. The message type carries the step in its low four bits.
std::vector<OwnSend> own_sends(NodeId u, std::size_t degree,
                               std::uint32_t step) {
  const auto payload = [&](std::uint32_t port, std::size_t len) {
    std::vector<std::uint32_t> words(len);
    for (std::size_t i = 0; i < len; ++i) {
      words[i] = (u << 20) ^ ((port & 0x3ff) << 10) ^ (step << 8) ^
                 static_cast<std::uint32_t>(i);
    }
    return words;
  };
  std::vector<OwnSend> out;
  for (std::uint32_t p = 0; p < degree; ++p) {
    const std::uint32_t key = u * 7 + p * 5 + step * 3;
    const std::size_t len = key % 6 == 0   ? 0
                            : key % 6 == 1 ? 300 + (u + p) % 64
                                           : key % 6;
    out.push_back({p, static_cast<std::uint16_t>(16 + step),
                   static_cast<std::uint32_t>(3 * len + p), payload(p, len)});
  }
  const std::uint32_t key = (u + step) % 4;
  const std::size_t len = key == 0 ? 0 : key == 1 ? 257 : u % 9 + 1;
  out.push_back({kEveryPort, static_cast<std::uint16_t>(32 + step),
                 static_cast<std::uint32_t>(len + 1),
                 payload(kEveryPort, len)});
  return out;
}

/// Type of the forwards sent at `step`: every received message goes one
/// port on, with its bits and words.
constexpr std::uint16_t forward_type(std::uint32_t step) {
  return static_cast<std::uint16_t>(48 + step);
}

class PlaneNode final : public net::congest::ProtocolNode {
 public:
  void on_start(net::congest::Context& ctx) override { send_own(ctx, 0); }

  void on_round(net::congest::Context& ctx,
                std::span<const net::congest::Received> inbox) override {
    const std::uint32_t step = (inbox.front().msg.type & 15u) + 1;
    for (const auto& r : inbox) {
      log[step].push_back({r.port, r.msg.type, r.msg.bits,
                           {r.msg.words.begin(), r.msg.words.end()}});
    }
    if (step > kLastStep) return;
    send_own(ctx, step);
    const auto d = static_cast<graph::PortId>(ctx.degree());
    for (const auto& r : inbox) {  // forwards the delivered view itself
      ctx.send((r.port + 1) % d, {.type = forward_type(step),
                                  .bits = r.msg.bits,
                                  .words = r.msg.words});
    }
  }

  /// log[r]: the round-r inbox.
  std::array<std::vector<Seen>, kLastStep + 2> log;

 private:
  void send_own(net::congest::Context& ctx, std::uint32_t step) {
    for (const OwnSend& s : own_sends(ctx.id(), ctx.degree(), step)) {
      const net::congest::Message m{s.type, s.bits, s.words};
      if (s.port == kEveryPort) {
        ctx.send_all(m);
      } else {
        ctx.send(s.port, m);
      }
    }
  }
};

struct PlaneRun {
  std::vector<std::array<std::vector<Seen>, kLastStep + 2>> logs;
  std::size_t rounds = 0;
  std::size_t messages = 0;
  std::uint64_t message_bits = 0;
  std::size_t dropped = 0;
};

/// The same protocol replayed on per-node vectors: senders in ascending
/// id order, each node's sends in program order, and every message over
/// the link {a, b} lost in round 2.
PlaneRun plane_model(const Graph& g, NodeId a, NodeId b) {
  const std::size_t n = g.node_count();
  PlaneRun run;
  run.logs.resize(n);
  struct Sent {
    NodeId from = 0;
    NodeId to = 0;
    Seen msg;
  };
  std::vector<Sent> flights;
  const auto push = [&](NodeId u, graph::PortId p, std::uint16_t type,
                        std::uint32_t bits,
                        const std::vector<std::uint32_t>& words) {
    const NodeId v = g.neighbor_at(u, p);
    const auto back = g.neighbors(v);
    const auto port = static_cast<graph::PortId>(
        std::find(back.begin(), back.end(), u) - back.begin());
    flights.push_back({u, v, {port, type, bits, words}});
    ++run.messages;
    run.message_bits += bits;
  };
  const auto emit = [&](NodeId u, std::uint32_t step,
                        const std::vector<Seen>& inbox) {
    for (const OwnSend& s : own_sends(u, g.degree(u), step)) {
      if (s.port != kEveryPort) {
        push(u, s.port, s.type, s.bits, s.words);
        continue;
      }
      for (graph::PortId p = 0; p < g.degree(u); ++p) {
        push(u, p, s.type, s.bits, s.words);
      }
    }
    for (const Seen& m : inbox) {
      push(u, static_cast<graph::PortId>((m.port + 1) % g.degree(u)),
           forward_type(step), m.bits, m.words);
    }
  };
  for (NodeId u = 0; u < n; ++u) emit(u, 0, {});
  for (std::uint32_t round = 1; !flights.empty(); ++round) {
    ++run.rounds;
    std::vector<std::vector<Seen>> inbox(n);
    for (const Sent& f : flights) {
      if (round == 2 && std::min(f.from, f.to) == std::min(a, b) &&
          std::max(f.from, f.to) == std::max(a, b)) {
        ++run.dropped;
        continue;
      }
      inbox[f.to].push_back(f.msg);
    }
    flights.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (inbox[v].empty()) continue;
      run.logs[v][round] = inbox[v];
      if (round <= kLastStep) emit(v, round, inbox[v]);
    }
  }
  return run;
}

TEST(CongestEngine, MessagePlaneDeliversExactlyTheReferenceInboxes) {
  const Graph g = connected_member(TopologyFamily::power_law(2), 24, 406);
  const NodeId a = 0;
  const NodeId b = g.neighbor_at(0, 0);
  net::FaultPlan plan;
  plan.add({.time = 2, .kind = net::FaultKind::kLinkFail, .u = a, .v = b});
  plan.add({.time = 3, .kind = net::FaultKind::kLinkRepair, .u = a, .v = b});
  const PlaneRun expected = plane_model(g, a, b);
  ASSERT_EQ(expected.rounds, kLastStep + 1);
  ASSERT_GT(expected.dropped, 0u);

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(threads);
    std::vector<PlaneNode> nodes(g.node_count());
    std::vector<net::congest::ProtocolNode*> ptrs;
    for (PlaneNode& node : nodes) ptrs.push_back(&node);
    net::congest::Engine engine(g, {.threads = threads});
    engine.schedule(plan);
    const auto stats = engine.run(ptrs);
    EXPECT_EQ(stats.status, net::congest::RunStatus::kOk);
    EXPECT_EQ(stats.rounds, expected.rounds);
    EXPECT_EQ(stats.messages, expected.messages);
    EXPECT_EQ(stats.message_bits, expected.message_bits);
    EXPECT_EQ(stats.dropped, expected.dropped);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(nodes[v].log, expected.logs[v]) << "node " << v;
    }
  }
}

/// A pulse whose only send is a send_all from a node without links: node 0
/// sends once over every link at the start; at the first pulse the linkless
/// node may send_all, and every node asks for a second pulse.
class LinklessNode final : public net::congest::ProtocolNode {
 public:
  explicit LinklessNode(bool send_at_pulse) : send_at_pulse_(send_at_pulse) {}

  void on_start(net::congest::Context& ctx) override {
    if (ctx.id() == 0) send_all(ctx);
  }
  void on_round(net::congest::Context&,
                std::span<const net::congest::Received>) override {}
  bool on_phase_end(net::congest::Context& ctx) override {
    if (++pulses_ > 1) return false;
    if (send_at_pulse_ && ctx.degree() == 0) send_all(ctx);
    return true;
  }

 private:
  static void send_all(net::congest::Context& ctx) {
    const std::uint32_t words[] = {ctx.id()};
    ctx.send_all({.type = 1, .bits = 5, .words = words});
  }

  bool send_at_pulse_;
  int pulses_ = 0;
};

TEST(CongestEngine, SendAllWithoutLinksKeepsNoRoundAlive) {
  // A connected graph on nodes 0..23 plus node 24 with no links.
  const Graph linked = connected_member(TopologyFamily::power_law(2), 24, 406);
  std::vector<graph::Edge> edges;
  for (NodeId u = 0; u < linked.node_count(); ++u) {
    for (const NodeId v : linked.neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  const Graph g(linked.node_count() + 1, edges);
  const auto run = [&](bool send_at_pulse, std::size_t threads) {
    std::vector<LinklessNode> nodes(g.node_count(), LinklessNode(send_at_pulse));
    std::vector<net::congest::ProtocolNode*> ptrs;
    for (LinklessNode& node : nodes) ptrs.push_back(&node);
    return net::congest::Engine(g, {.threads = threads}).run(ptrs);
  };
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(threads);
    const auto quiet = run(false, threads);
    const auto linkless = run(true, threads);
    ASSERT_EQ(quiet.status, net::congest::RunStatus::kOk);
    EXPECT_EQ(quiet.rounds, 1u);
    EXPECT_EQ(quiet.messages, linked.degree(0));
    EXPECT_EQ(quiet.phases, 2u);
    EXPECT_EQ(linkless.status, net::congest::RunStatus::kOk);
    EXPECT_EQ(linkless.rounds, quiet.rounds);
    EXPECT_EQ(linkless.messages, quiet.messages);
    EXPECT_EQ(linkless.message_bits, quiet.message_bits);
    EXPECT_EQ(linkless.phases, quiet.phases);
  }
}

// --- Engine and construction spans ----------------------------------------

TEST(CongestEngine, SpansCountRunsRoundsAndPulses) {
  const Graph dense = TopologyFamily::uniform().make(48, 404);
  const Graph g = connected_member(TopologyFamily::power_law(2), 48, 406);
  schemes::TzOptions opt;
  opt.seed = 17;
  std::string first_summary;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE(threads);
    obs::Trace trace;
    net::TzConstructionResult built;
    {
      const obs::TraceScope scope(trace);
      built = net::distributed_tz_construction(g, opt, {.threads = threads});
    }
    ASSERT_EQ(built.status, net::ConstructStatus::kOk) << built.detail;
    std::map<std::string, std::uint64_t> counts;
    for (const auto& row : trace.summary()) counts[row.name] = row.count;
    EXPECT_EQ(counts["net.construct.tz"], 1u);
    EXPECT_EQ(counts["net.construct.encode"], 1u);
    EXPECT_EQ(counts["net.congest.run"], 1u);
    EXPECT_EQ(counts["net.congest.round"], built.rounds);
    EXPECT_EQ(counts["net.congest.pulse"], built.phases);
    if (threads == 1) {
      first_summary = trace.summary_json(false);
    } else {
      EXPECT_EQ(trace.summary_json(false), first_summary);
    }

    // The other two protocols: one construct span, one encode span.
    obs::Trace others;
    net::ConstructionResult compact;
    net::ConstructionResult full;
    {
      const obs::TraceScope scope(others);
      compact =
          net::distributed_compact_construction(dense, {}, {.threads = threads});
      full = net::distributed_full_table_construction(g, {.threads = threads});
    }
    ASSERT_EQ(compact.status, net::ConstructStatus::kOk) << compact.detail;
    ASSERT_EQ(full.status, net::ConstructStatus::kOk) << full.detail;
    counts.clear();
    for (const auto& row : others.summary()) counts[row.name] = row.count;
    EXPECT_EQ(counts["net.construct.compact"], 1u);
    EXPECT_EQ(counts["net.construct.full_table"], 1u);
    EXPECT_EQ(counts["net.construct.encode"], 2u);
    EXPECT_EQ(counts["net.congest.run"], 2u);
    EXPECT_EQ(counts["net.congest.round"], compact.rounds + full.rounds);
  }
}

// --- Property: accounting matches the documented closed forms -------------

TEST(CongestProperty, CompactTrafficClosedForms) {
  std::vector<Graph> graphs = {TopologyFamily::uniform().make(48, 404),
                               TopologyFamily::uniform().make(48, 405)};
  for (const std::size_t n : {48, 96}) {  // certified G(n, ½) members
    Rng rng(n + 1008);
    graphs.push_back(core::certified_random_graph(n, rng));
  }
  for (const Graph& g : graphs) {
    SCOPED_TRACE(g.node_count());
    const auto built = net::distributed_compact_construction(g);
    const unsigned id_width = bitio::ceil_log2(g.node_count());
    std::uint64_t bits = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      bits += static_cast<std::uint64_t>(g.degree(v)) * g.degree(v) * id_width;
    }
    EXPECT_EQ(built.rounds, 1u);
    EXPECT_EQ(built.messages, 2 * g.edge_count());
    EXPECT_EQ(built.message_bits, bits);
  }
}

TEST(CongestProperty, TzPhaseRoundsAndTrafficMatchDistancePredictions) {
  const std::size_t n = 48;
  for (const auto& family :
       {TopologyFamily::power_law(2), TopologyFamily::grid()}) {
    SCOPED_TRACE(family.name());
    const Graph g = connected_member(family, n, 406);
    schemes::TzOptions opt;
    opt.seed = 17;
    const auto built = net::distributed_tz_construction(g, opt);
    ASSERT_EQ(built.status, net::ConstructStatus::kOk) << built.detail;
    ASSERT_EQ(built.accepted_attempt, 0u)
        << "pick another seed: the closed forms below assume one attempt";

    const auto dist_cached = graph::DistanceCache::global().get(g);
    const auto& dist = *dist_cached;
    const unsigned I = bitio::ceil_log2(n);
    const unsigned W = bitio::ceil_log2_plus1(n);
    const std::size_t m2 = 2 * g.edge_count();
    const auto& landmarks = built.scheme->landmarks();

    // d(v, A), nearest landmark, eccentricities.
    std::vector<std::uint32_t> dva(n, graph::kUnreachable);
    std::vector<NodeId> l_of(n, landmarks.front());
    for (NodeId v = 0; v < n; ++v) {
      for (const NodeId l : landmarks) {
        if (dist.at(v, l) < dva[v]) {
          dva[v] = dist.at(v, l);
          l_of[v] = l;
        }
      }
    }
    std::size_t ecc0 = 0, max_ecc = 0, handoff = 0;
    for (NodeId v = 0; v < n; ++v) {
      ecc0 = std::max<std::size_t>(ecc0, dist.at(0, v));
      handoff = std::max<std::size_t>(handoff, dva[v]);
      for (const NodeId l : landmarks) {
        max_ecc = std::max<std::size_t>(max_ecc, dist.at(l, v));
      }
    }

    // Rounds per phase: the forms from construction.hpp.
    EXPECT_EQ(built.tree_rounds, 3 * ecc0 + 2);
    EXPECT_EQ(built.flood_rounds, max_ecc + 1);
    EXPECT_EQ(built.announce_rounds, handoff);
    EXPECT_EQ(built.register_rounds, handoff);
    EXPECT_EQ(built.audit_rounds, 1u);
    // The issue's coarse bound: construction after the election fits in
    // max landmark eccentricity + handoff radius (+1 drain, +1 audit).
    EXPECT_LE(built.flood_rounds + built.announce_rounds +
                  built.register_rounds + built.audit_rounds,
              max_ecc + 2 * handoff + 2);

    // Traffic per phase.
    const auto& tree = row(built.phase_stats, "tz.tree");
    EXPECT_EQ(tree.messages, m2);
    EXPECT_EQ(tree.message_bits, std::uint64_t{m2} * W);
    const auto& claim = row(built.phase_stats, "tz.tree.claim");
    EXPECT_EQ(claim.messages, n - 1);
    EXPECT_EQ(claim.message_bits, 0u);
    const auto& sum = row(built.phase_stats, "tz.tree.sum");
    EXPECT_EQ(sum.messages, 2 * (n - 1));
    EXPECT_EQ(sum.message_bits, std::uint64_t{4} * (n - 1) * W);

    const auto& flood = row(built.phase_stats, "tz.flood a0");
    EXPECT_EQ(flood.messages, landmarks.size() * m2);
    EXPECT_EQ(flood.message_bits, std::uint64_t{landmarks.size()} * m2 * I);

    std::size_t announce_msgs = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (dva[v] == 0) continue;
      for (NodeId x = 0; x < n; ++x) {
        if (dist.at(x, v) < dva[v]) announce_msgs += g.degree(x);
      }
    }
    const auto& announce = row(built.phase_stats, "tz.announce a0");
    EXPECT_EQ(announce.messages, announce_msgs);
    EXPECT_EQ(announce.message_bits, std::uint64_t{announce_msgs} * (I + W));

    // Registration: each v's packet crosses every edge of the shortest
    // path DAG between v and l(v).
    std::size_t reg_msgs = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (dva[v] == 0) continue;
      const NodeId l = l_of[v];
      for (NodeId x = 0; x < n; ++x) {
        if (x == l || dist.at(v, x) + dist.at(x, l) != dist.at(v, l)) continue;
        for (const NodeId p : g.neighbors(x)) {
          if (dist.at(p, l) + 1 == dist.at(x, l)) ++reg_msgs;
        }
      }
    }
    const auto& reg = row(built.phase_stats, "tz.register");
    EXPECT_EQ(reg.messages, reg_msgs);
    EXPECT_EQ(reg.message_bits, std::uint64_t{reg_msgs} * 2 * I);

    std::uint64_t audit_bits = 0;
    for (NodeId u = 0; u < n; ++u) {
      std::size_t cluster = 0;
      for (NodeId v = 0; v < n; ++v) {
        if (v != u && dist.at(u, v) < dva[v]) ++cluster;
      }
      const std::size_t entries = cluster + (dva[u] >= 1 ? 1 : 0);
      audit_bits += std::uint64_t{g.degree(u)} *
                    (2 * W + landmarks.size() * (I + W) + entries * (I + 2 * W));
    }
    const auto& audit = row(built.phase_stats, "tz.audit");
    EXPECT_EQ(audit.messages, m2);
    EXPECT_EQ(audit.message_bits, audit_bits);
  }
}

TEST(CongestProperty, FullTableTrafficClosedForms) {
  const std::size_t n = 40;
  const Graph g = connected_member(TopologyFamily::grid(), n, 1);
  const auto built = net::distributed_full_table_construction(g);
  ASSERT_EQ(built.status, net::ConstructStatus::kOk);

  const auto dist_cached = graph::DistanceCache::global().get(g);
  const unsigned I = bitio::ceil_log2(n);
  const unsigned W = bitio::ceil_log2_plus1(n);
  const std::size_t m2 = 2 * g.edge_count();

  EXPECT_EQ(built.rounds, dist_cached->diameter() + 2);  // flood+drain, audit
  const auto& flood = row(built.phase_stats, "full.flood");
  EXPECT_EQ(flood.rounds, dist_cached->diameter() + 1);
  EXPECT_EQ(flood.messages, n * m2);
  EXPECT_EQ(flood.message_bits, std::uint64_t{n} * m2 * I);
  const auto& audit = row(built.phase_stats, "full.audit");
  EXPECT_EQ(audit.rounds, 1u);
  EXPECT_EQ(audit.messages, m2);
  std::uint64_t audit_bits = 0;
  for (NodeId u = 0; u < n; ++u) {
    audit_bits += std::uint64_t{g.degree(u)} * (W + n * (I + W));
  }
  EXPECT_EQ(audit.message_bits, audit_bits);
}

}  // namespace
}  // namespace optrt
