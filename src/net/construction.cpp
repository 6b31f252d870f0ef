#include "net/construction.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <compare>
#include <limits>
#include <random>
#include <tuple>
#include <utility>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "core/parallel.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "schemes/errors.hpp"
#include "schemes/landmark_table.hpp"

namespace optrt::net {

namespace {

using congest::Context;
using congest::Message;
using congest::Received;
using graph::NodeId;
using graph::PortId;

// Message types, shared across the three protocols (each run uses one
// protocol, but distinct tags keep cross-phase strays detectable).
constexpr std::uint16_t kMsgNeighbors = 1;
constexpr std::uint16_t kMsgFtFlood = 2;
constexpr std::uint16_t kMsgFtAudit = 3;
constexpr std::uint16_t kMsgTzTree = 10;
constexpr std::uint16_t kMsgTzClaim = 11;
constexpr std::uint16_t kMsgTzSum = 12;
constexpr std::uint16_t kMsgTzTotal = 13;
constexpr std::uint16_t kMsgTzLm = 14;
constexpr std::uint16_t kMsgTzAnn = 15;
constexpr std::uint16_t kMsgTzVeto = 16;
constexpr std::uint16_t kMsgTzReg = 17;
constexpr std::uint16_t kMsgTzAudit = 18;

/// Sticky per-node failure flag; merge keeps the most severe.
struct NodeFlag {
  ConstructStatus status = ConstructStatus::kOk;
  std::string detail;

  void raise(ConstructStatus s, const char* what) {
    if (static_cast<int>(s) > static_cast<int>(status)) {
      status = s;
      detail = what;
    }
  }
};

/// Folds per-node flags into one report (worst status wins; the detail
/// names the least node that raised it — deterministic).
template <typename Nodes>
void merge_flags(const Nodes& nodes, ConstructStatus& status,
                 std::string& detail) {
  for (std::size_t v = 0; v < nodes.size(); ++v) {
    const NodeFlag& f = nodes[v]->flag();
    if (static_cast<int>(f.status) > static_cast<int>(status)) {
      status = f.status;
      detail = "node " + std::to_string(v) + ": " + f.detail;
    }
  }
}

// --- Theorem 1 compact tables: one neighbour-exchange round ---------------

class CompactNode final : public congest::ProtocolNode {
 public:
  explicit CompactNode(unsigned id_width) : id_width_(id_width) {}

  void on_start(Context& ctx) override {
    ctx.label_phase("compact.exchange");
    const auto d = static_cast<PortId>(ctx.degree());
    std::vector<std::uint32_t> words(d);
    for (PortId p = 0; p < d; ++p) words[p] = ctx.neighbor(p);
    ctx.send_all({.type = kMsgNeighbors,
                  .bits = static_cast<std::uint32_t>(d * id_width_),
                  .words = words});
  }

  void on_round(Context& ctx, std::span<const Received> inbox) override {
    for (const Received& r : inbox) {
      if (r.msg.type != kMsgNeighbors) {
        flag_.raise(ConstructStatus::kInconsistent, "unexpected message");
        continue;
      }
      lists_.emplace_back(ctx.neighbor(r.port),
                          std::vector<std::uint32_t>(r.msg.words.begin(),
                                                     r.msg.words.end()));
    }
  }

  [[nodiscard]] const NodeFlag& flag() const { return flag_; }

  /// (neighbour id, its reported neighbour list), ascending by sender.
  std::vector<std::pair<NodeId, std::vector<std::uint32_t>>> lists_;

 private:
  unsigned id_width_;
  NodeFlag flag_;
};

void account(const char* proto, const congest::RunStats& stats,
             ConstructStatus status) {
  const std::string base = std::string("construction.") + proto;
  obs::counter(base + ".builds").inc();
  obs::counter(base + ".rounds").inc(stats.rounds);
  obs::counter(base + ".messages").inc(stats.messages);
  obs::counter(base + ".message_bits").inc(stats.message_bits);
  if (status != ConstructStatus::kOk) {
    obs::counter(base + ".failures").inc();
  }
}

}  // namespace

const char* to_string(ConstructStatus status) noexcept {
  switch (status) {
    case ConstructStatus::kOk:
      return "ok";
    case ConstructStatus::kInapplicable:
      return "inapplicable";
    case ConstructStatus::kIncompleteInfo:
      return "incomplete-info";
    case ConstructStatus::kInconsistent:
      return "inconsistent";
    case ConstructStatus::kTopologyChanged:
      return "topology-changed";
    case ConstructStatus::kInvalidTables:
      return "invalid-tables";
    case ConstructStatus::kStalled:
      return "stalled";
  }
  return "unknown";
}

ConstructionResult distributed_compact_construction(
    const graph::Graph& g, const schemes::CompactNodeOptions& options,
    const ProtocolOptions& protocol) {
  const obs::TraceSpan span("net.construct.compact");
  const std::size_t n = g.node_count();
  const unsigned id_width = bitio::id_width(n);

  std::vector<std::unique_ptr<CompactNode>> nodes;
  nodes.reserve(n);
  std::vector<congest::ProtocolNode*> ptrs;
  ptrs.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    nodes.push_back(std::make_unique<CompactNode>(id_width));
    ptrs.push_back(nodes.back().get());
  }

  congest::EngineOptions eng_opt;
  eng_opt.threads = protocol.threads;
  eng_opt.max_rounds = protocol.max_rounds;
  congest::Engine engine(g, eng_opt);
  if (protocol.faults != nullptr) engine.schedule(*protocol.faults);
  const auto run = engine.run(ptrs);

  ConstructionResult result;
  result.rounds = run.rounds;
  result.messages = run.messages;
  result.message_bits = run.message_bits;
  result.dropped = run.dropped;
  result.phase_stats = run.phase_stats;
  if (run.status != congest::RunStatus::kOk) {
    result.status = ConstructStatus::kStalled;
    result.detail = to_string(run.status);
    account("compact", run, result.status);
    return result;
  }
  merge_flags(nodes, result.status, result.detail);

  // Local completeness: a node knows its neighbour set, so a dropped list
  // is locally detectable.
  for (NodeId u = 0; u < n && result.status == ConstructStatus::kOk; ++u) {
    if (nodes[u]->lists_.size() != g.degree(u)) {
      result.status = ConstructStatus::kIncompleteInfo;
      result.detail =
          "node " + std::to_string(u) + ": neighbour list lost to a fault";
    }
  }
  if (result.status != ConstructStatus::kOk) {
    account("compact", run, result.status);
    return result;
  }

  // Every node now builds its table from its exact 2-hop view. This is
  // pure local computation; parallelizing it is outside the CONGEST cost
  // model and deterministic (index-ordered merge).
  const obs::TraceSpan encode_span("net.construct.encode");
  struct Built {
    bitio::BitVector bits;
    std::string error;
    bool ok = false;
  };
  auto built = core::parallel_map<Built>(
      protocol.threads, n, [&](std::size_t u) {
        Built b;
        std::vector<graph::Edge> edges;
        for (NodeId v : g.neighbors(static_cast<NodeId>(u))) {
          edges.emplace_back(static_cast<NodeId>(u), v);
        }
        for (const auto& [v, list] : nodes[u]->lists_) {
          for (const std::uint32_t w : list) {
            const auto x = static_cast<NodeId>(w);
            if (x != u) edges.emplace_back(std::min(v, x), std::max(v, x));
          }
        }
        // Two neighbours of u each report the edge between them.
        std::sort(edges.begin(), edges.end());
        edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
        try {
          b.bits = schemes::build_compact_node(graph::Graph(n, edges),
                                               static_cast<NodeId>(u), options)
                       .bits;
          b.ok = true;
        } catch (const schemes::SchemeInapplicable& e) {
          b.error = e.what();
        }
        return b;
      });
  result.node_tables.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    if (!built[u].ok) {
      if (protocol.faults == nullptr) {
        account("compact", run, ConstructStatus::kInapplicable);
        throw schemes::SchemeInapplicable(built[u].error);
      }
      result.status = ConstructStatus::kInapplicable;
      result.detail = "node " + std::to_string(u) + ": " + built[u].error;
      result.node_tables.clear();
      account("compact", run, result.status);
      return result;
    }
    result.node_tables[u] = std::move(built[u].bits);
  }
  account("compact", run, result.status);
  return result;
}

// --- Full-table oracle protocol: n simultaneous BFS floods ----------------

namespace {

class FullTableNode final : public congest::ProtocolNode {
 public:
  FullTableNode(std::size_t n, unsigned id_width, unsigned cnt_width)
      : n_(n), id_width_(id_width), cnt_width_(cnt_width) {}

  void on_start(Context& ctx) override {
    ctx.label_phase("full.flood");
    dist_.assign(n_, graph::kUnreachable);
    port_.assign(n_, 0);
    dist_[ctx.id()] = 0;
    const std::uint32_t words[] = {ctx.id(), 1};
    ctx.send_all({.type = kMsgFtFlood, .bits = id_width_, .words = words});
  }

  void on_round(Context& ctx, std::span<const Received> inbox) override {
    if (state_ == St::kFlood) {
      // First receptions only; within the round take the least hop, then
      // the least arrival port (= least sender id: ports are sorted), and
      // forward in ascending source order.
      stage_.clear();
      for (const Received& r : inbox) {
        if (r.msg.type != kMsgFtFlood) {
          flag_.raise(ConstructStatus::kInconsistent, "unexpected message");
          continue;
        }
        const NodeId v = r.msg.words[0];
        if (dist_[v] != graph::kUnreachable) continue;
        stage_.push_back({v, r.msg.words[1], r.port});
      }
      std::sort(stage_.begin(), stage_.end());
      for (std::size_t i = 0; i < stage_.size(); ++i) {
        const Staged& e = stage_[i];
        if (i > 0 && stage_[i - 1].source == e.source) continue;
        dist_[e.source] = e.hop;
        port_[e.source] = e.port;
        const std::uint32_t words[] = {e.source, e.hop + 1};
        ctx.send_all({.type = kMsgFtFlood, .bits = id_width_, .words = words});
      }
      return;
    }
    // Audit round: distance vectors from every live neighbour.
    for (const Received& r : inbox) {
      if (r.msg.type != kMsgFtAudit) {
        flag_.raise(ConstructStatus::kInconsistent, "unexpected message");
        continue;
      }
      ++audit_msgs_;
      std::size_t i = 0;
      const std::size_t count = r.msg.words[i++];
      for (std::size_t k = 0; k < count; ++k) {
        const NodeId v = r.msg.words[i++];
        const std::uint32_t d_they = r.msg.words[i++];
        const std::uint32_t d_mine = dist_[v];
        if (d_mine == graph::kUnreachable) {
          // They reached v; a connected component is all-or-nothing, so a
          // missing entry here means a flood was lost, not disconnection.
          flag_.raise(ConstructStatus::kInconsistent,
                      "flood entry missing at a neighbour of its holder");
        } else if ((d_they > d_mine ? d_they - d_mine : d_mine - d_they) >
                   1) {
          flag_.raise(ConstructStatus::kInconsistent,
                      "distance Lipschitz violation");
        }
      }
    }
  }

  bool on_phase_end(Context& ctx) override {
    if (state_ == St::kFlood) {
      state_ = St::kAudit;
      ctx.label_phase("full.audit");
      const auto d = static_cast<PortId>(ctx.degree());
      for (PortId p = 0; p < d; ++p) {
        if (!ctx.port_up(p)) {
          flag_.raise(ConstructStatus::kTopologyChanged,
                      "incident link down at audit");
        }
      }
      std::uint32_t count = 0;
      std::vector<std::uint32_t> words{0};  // count, patched below
      for (NodeId v = 0; v < n_; ++v) {
        if (dist_[v] == graph::kUnreachable) continue;
        words.push_back(v);
        words.push_back(dist_[v]);
        ++count;
      }
      words[0] = count;
      ctx.send_all({.type = kMsgFtAudit,
                    .bits = cnt_width_ + count * (id_width_ + cnt_width_),
                    .words = words});
      return true;
    }
    if (state_ == St::kAudit) {
      if (audit_msgs_ != ctx.degree()) {
        flag_.raise(ConstructStatus::kTopologyChanged, "audit message lost");
      }
      state_ = St::kDone;
    }
    return false;
  }

  [[nodiscard]] const NodeFlag& flag() const { return flag_; }

  std::vector<std::uint32_t> dist_;
  std::vector<PortId> port_;

 private:
  enum class St : std::uint8_t { kFlood, kAudit, kDone };
  // One flood reception, staged for the round; reused every round.
  struct Staged {
    NodeId source = 0;
    std::uint32_t hop = 0;
    PortId port = 0;
    friend auto operator<=>(const Staged&, const Staged&) = default;
  };
  std::size_t n_;
  unsigned id_width_;
  unsigned cnt_width_;
  St state_ = St::kFlood;
  std::size_t audit_msgs_ = 0;
  NodeFlag flag_;
  std::vector<Staged> stage_;
};

}  // namespace

FullTableConstructionResult distributed_full_table_construction(
    const graph::Graph& g, const ProtocolOptions& protocol) {
  const obs::TraceSpan span("net.construct.full_table");
  const std::size_t n = g.node_count();
  const unsigned id_width = bitio::id_width(n);
  const unsigned cnt_width = bitio::ceil_log2_plus1(n);

  std::vector<std::unique_ptr<FullTableNode>> nodes;
  nodes.reserve(n);
  std::vector<congest::ProtocolNode*> ptrs;
  ptrs.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    nodes.push_back(std::make_unique<FullTableNode>(n, id_width, cnt_width));
    ptrs.push_back(nodes.back().get());
  }

  congest::EngineOptions eng_opt;
  eng_opt.threads = protocol.threads;
  eng_opt.max_rounds = protocol.max_rounds;
  congest::Engine engine(g, eng_opt);
  if (protocol.faults != nullptr) engine.schedule(*protocol.faults);
  const auto run = engine.run(ptrs);

  FullTableConstructionResult result;
  result.rounds = run.rounds;
  result.messages = run.messages;
  result.message_bits = run.message_bits;
  result.dropped = run.dropped;
  result.phase_stats = run.phase_stats;
  if (run.status != congest::RunStatus::kOk) {
    result.status = ConstructStatus::kStalled;
    result.detail = to_string(run.status);
    account("full_table", run, result.status);
    return result;
  }
  merge_flags(nodes, result.status, result.detail);
  if (result.status != ConstructStatus::kOk) {
    account("full_table", run, result.status);
    return result;
  }

  const obs::TraceSpan encode_span("net.construct.encode");
  result.node_tables.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    const unsigned width = bitio::port_width(g.degree(u));
    bitio::BitWriter w;
    for (NodeId v = 0; v < n; ++v) {
      const bool self_or_unreachable =
          v == u || nodes[u]->dist_[v] == graph::kUnreachable;
      w.write_bits(self_or_unreachable ? 0 : nodes[u]->port_[v], width);
    }
    result.node_tables[u] = w.take();
  }
  account("full_table", run, result.status);
  return result;
}

// --- Thorup-Zwick k = 2: election, floods, announcements, audit -----------

namespace {

/// Common knowledge every TzNode derives from (n, seed) alone — each node
/// conceptually replays the shared-seed PRNG stream locally and keeps the
/// draws addressed to it (draw a·n + v belongs to node v at attempt a).
struct TzShared {
  std::size_t n = 0;
  unsigned id_width = 0;
  unsigned cnt_width = 0;  // also the distance/count charge width
  std::size_t cap = 0;
  std::size_t max_attempts = 0;
  double p = 1.0;
  std::size_t expected_landmarks = 0;  // ⌈p·n⌉, what a sample holds
  std::vector<double> uniforms;  // max_attempts · n draws of Rng(seed)
  /// Phase labels of attempt a, built once per attempt for every node.
  struct AttemptLabels {
    std::string flood, announce, veto;
  };
  std::vector<AttemptLabels> labels;  // max_attempts entries
};

/// A set of node ids in one open-addressed table sized by what it holds,
/// never by n: O(1) membership for the per-message tests of the landmark
/// flood and of the veto and registration forwards.
class IdSet {
 public:
  [[nodiscard]] bool contains(NodeId v) const {
    if (slots_.empty()) return false;
    for (std::size_t i = slot(v);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == v) return true;
      if (slots_[i] == kFree) return false;
    }
  }

  /// Adds v; true when it was absent.
  bool insert(NodeId v) {
    if (2 * (size_ + 1) > slots_.size()) reserve(size_ + 1);
    std::size_t i = slot(v);
    for (; slots_[i] != kFree; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == v) return false;
    }
    slots_[i] = v;
    ++size_;
    return true;
  }

  /// Empties the set, keeping its table.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), kFree);
    size_ = 0;
  }

  /// Sizes the table to hold `count` ids at most half full.
  void reserve(std::size_t count) {
    const std::size_t want = std::bit_ceil(std::max<std::size_t>(16, 2 * count));
    if (want <= slots_.size()) return;
    const std::vector<NodeId> old =
        std::exchange(slots_, std::vector<NodeId>(want, kFree));
    shift_ = 64 - std::countr_zero(want);
    size_ = 0;
    for (const NodeId v : old) {
      if (v != kFree) insert(v);
    }
  }

 private:
  static constexpr NodeId kFree = std::numeric_limits<NodeId>::max();

  /// Fibonacci hashing: the top log2(slots) bits of v·2⁶⁴/φ.
  [[nodiscard]] std::size_t slot(NodeId v) const {
    return static_cast<std::size_t>((v * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  std::vector<NodeId> slots_;  // a power of two of them, or none
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

/// Merges `fresh` (ascending by `key`, no key in `into`) into `into`
/// (ascending by `key`) from the back, in place.
template <typename Entry, typename Key>
void merge_fresh(std::vector<Entry>& into, const std::vector<Entry>& fresh,
                 Key Entry::*key) {
  std::size_t i = into.size();
  std::size_t j = fresh.size();
  into.resize(i + j);
  for (std::size_t k = into.size(); j > 0;) {
    if (i > 0 && into[i - 1].*key > fresh[j - 1].*key) {
      into[--k] = into[--i];
    } else {
      into[--k] = fresh[--j];
    }
  }
}

class TzNode final : public congest::ProtocolNode {
 public:
  enum class St : std::uint8_t {
    kTreeFlood,
    kTreeClaim,
    kTreeSum,
    kFlood,
    kAnnounce,
    kVeto,
    kRegister,
    kAudit,
    kDone,
  };

  TzNode(const TzShared* shared, NodeId id, std::size_t degree)
      : shared_(shared), id_(id), degree_(degree) {}

  void on_start(Context& ctx) override {
    ctx.label_phase("tz.tree");
    if (id_ == 0) {
      depth_ = 0;
      const std::uint32_t words[] = {token(), 1};
      ctx.send_all(
          {.type = kMsgTzTree, .bits = shared_->cnt_width, .words = words});
    }
  }

  void on_round(Context& ctx, std::span<const Received> inbox) override {
    switch (state_) {
      case St::kTreeFlood:
        round_tree(ctx, inbox);
        break;
      case St::kTreeClaim:
        round_claim(ctx, inbox);
        break;
      case St::kTreeSum:
        round_sum(ctx, inbox);
        break;
      case St::kFlood:
        round_flood(ctx, inbox);
        break;
      case St::kAnnounce:
        round_announce(ctx, inbox);
        break;
      case St::kVeto:
        round_veto(ctx, inbox);
        break;
      case St::kRegister:
        round_register(ctx, inbox);
        break;
      case St::kAudit:
        round_audit(ctx, inbox);
        break;
      case St::kDone:
        flag_.raise(ConstructStatus::kInconsistent, "message after done");
        break;
    }
  }

  bool on_phase_end(Context& ctx) override {
    switch (state_) {
      case St::kTreeFlood:
        state_ = St::kTreeClaim;
        ctx.label_phase("tz.tree.claim");
        if (parent_port_ >= 0) {
          const std::uint32_t words[] = {token()};
          // Payload-free: presence is the claim.
          ctx.send(static_cast<PortId>(parent_port_),
                   {.type = kMsgTzClaim, .bits = 0, .words = words});
        }
        return true;
      case St::kTreeClaim:
        state_ = St::kTreeSum;
        ctx.label_phase("tz.tree.sum");
        pending_ = children_.size();
        if (pending_ == 0) complete_subtree(ctx);
        return true;
      case St::kTreeSum:
        passive_ = !have_total_;
        if (passive_) {
          flag_.raise(ConstructStatus::kIncompleteInfo,
                      "degree aggregation never arrived");
        }
        avg_degree_ = have_total_ ? static_cast<double>(total_) /
                                        static_cast<double>(shared_->n)
                                  : 0.0;
        start_attempt(ctx);
        return true;
      case St::kFlood:
        return pulse_flood(ctx);
      case St::kAnnounce:
        return pulse_announce(ctx);
      case St::kVeto:
        return pulse_veto(ctx);
      case St::kRegister:
        enter_audit(ctx);
        return true;
      case St::kAudit:
        if (audit_msgs_ != degree_) {
          flag_.raise(ConstructStatus::kTopologyChanged,
                      "audit message lost");
        }
        state_ = St::kDone;
        return false;
      case St::kDone:
        return false;
    }
    return false;
  }

  [[nodiscard]] const NodeFlag& flag() const { return flag_; }

  /// What the landmark flood taught this node about one landmark: d(v, l),
  /// the least BFS parent port, and every BFS parent (the first-reception
  /// senders) as a slice of parents_.
  struct LmEntry {
    NodeId landmark = 0;
    std::uint32_t dist = 0;
    PortId least_port = 0;
    std::uint32_t parents_begin = 0;
    std::uint32_t parents_count = 0;
  };
  /// What v's announcement taught this node: its hop count h = d(x, v),
  /// d(v, A), and the least port it arrived over at hop h.
  struct AnnEntry {
    NodeId node = 0;
    std::uint32_t h = 0;
    std::uint32_t dva = 0;
    PortId port = 0;
    bool in_cluster = false;
  };
  /// The least port a registration for v arrived over, at landmarks.
  struct ExitEntry {
    NodeId node = 0;
    PortId port = 0;
    friend auto operator<=>(const ExitEntry&, const ExitEntry&) = default;
  };

  std::vector<LmEntry> lm_;      // ascending by landmark
  std::vector<PortId> parents_;  // the BFS parents of every lm_ entry
  std::vector<AnnEntry> ann_;    // ascending by node
  std::vector<ExitEntry> exit_learned_;  // ascending by node
  std::uint32_t dva_ = 0;
  NodeId l_of_ = 0;
  std::size_t attempt_ = 0;

 private:
  [[nodiscard]] std::uint32_t token() const {
    return (static_cast<std::uint32_t>(state_) << 16) |
           static_cast<std::uint32_t>(attempt_ & 0xffff);
  }

  /// Every TZ message leads with the sender's (state, attempt) token; a
  /// mismatch means the network desynchronized the lockstep phases (only
  /// possible under faults) — sticky-flag it and ignore the message.
  [[nodiscard]] bool tagged(const Received& r, std::uint16_t type) {
    if (r.msg.type != type || r.msg.words.empty() ||
        r.msg.words[0] != token()) {
      flag_.raise(ConstructStatus::kInconsistent, "phase desync");
      return false;
    }
    return true;
  }

  /// lm_'s entry for landmark l, or nullptr when the flood has not
  /// reached this node.
  [[nodiscard]] const LmEntry* find_lm(NodeId l) const {
    const auto it = std::lower_bound(
        lm_.begin(), lm_.end(), l,
        [](const LmEntry& e, NodeId key) { return e.landmark < key; });
    return it != lm_.end() && it->landmark == l ? &*it : nullptr;
  }

  /// ann_'s entry for v, or nullptr when v's announcement never came.
  [[nodiscard]] const AnnEntry* find_ann(NodeId v) const {
    const auto it = std::lower_bound(
        ann_.begin(), ann_.end(), v,
        [](const AnnEntry& e, NodeId key) { return e.node < key; });
    return it != ann_.end() && it->node == v ? &*it : nullptr;
  }

  [[nodiscard]] std::span<const PortId> parents_of(const LmEntry& e) const {
    return {parents_.data() + e.parents_begin, e.parents_count};
  }

  [[nodiscard]] bool coin(std::size_t attempt) const {
    if (passive_) return false;
    const double u = shared_->uniforms[attempt * shared_->n + id_];
    double p_node = shared_->p;
    if (avg_degree_ > 0.0) {
      p_node = std::min(
          1.0, shared_->p * static_cast<double>(degree_) / avg_degree_);
    }
    return u < p_node;
  }

  void round_tree(Context& ctx, std::span<const Received> inbox) {
    if (depth_ != graph::kUnreachable) return;  // already joined
    std::uint32_t best_h = graph::kUnreachable;
    int best_port = -1;
    for (const Received& r : inbox) {
      if (!tagged(r, kMsgTzTree)) continue;
      const std::uint32_t h = r.msg.words[1];
      if (h < best_h || (h == best_h && static_cast<int>(r.port) < best_port)) {
        best_h = h;
        best_port = static_cast<int>(r.port);
      }
    }
    if (best_port < 0) return;
    depth_ = best_h;
    parent_port_ = best_port;
    const std::uint32_t words[] = {token(), depth_ + 1};
    ctx.send_all(
        {.type = kMsgTzTree, .bits = shared_->cnt_width, .words = words});
  }

  void round_claim(Context&, std::span<const Received> inbox) {
    for (const Received& r : inbox) {
      if (!tagged(r, kMsgTzClaim)) continue;
      children_.push_back(r.port);
    }
  }

  void complete_subtree(Context& ctx) {
    const std::uint64_t subtotal = acc_ + degree_;
    if (id_ == 0) {
      total_ = subtotal;
      have_total_ = true;
      broadcast_total(ctx);
    } else if (parent_port_ >= 0) {
      const std::uint32_t words[] = {token(),
                                     static_cast<std::uint32_t>(subtotal)};
      ctx.send(static_cast<PortId>(parent_port_),
               {.type = kMsgTzSum, .bits = 2 * shared_->cnt_width,
                .words = words});
    }
  }

  void broadcast_total(Context& ctx) {
    const std::uint32_t words[] = {token(), static_cast<std::uint32_t>(total_)};
    for (const PortId p : children_) {
      ctx.send(p, {.type = kMsgTzTotal, .bits = 2 * shared_->cnt_width,
                   .words = words});
    }
  }

  void round_sum(Context& ctx, std::span<const Received> inbox) {
    for (const Received& r : inbox) {
      if (r.msg.type == kMsgTzSum) {
        if (!tagged(r, kMsgTzSum)) continue;
        acc_ += r.msg.words[1];
        if (pending_ > 0 && --pending_ == 0) complete_subtree(ctx);
      } else if (r.msg.type == kMsgTzTotal) {
        if (!tagged(r, kMsgTzTotal)) continue;
        if (have_total_) continue;
        total_ = r.msg.words[1];
        have_total_ = true;
        broadcast_total(ctx);
      } else {
        flag_.raise(ConstructStatus::kInconsistent, "unexpected message");
      }
    }
  }

  void start_attempt(Context& ctx) {
    lm_.clear();
    lm_known_.clear();
    lm_known_.reserve(shared_->expected_landmarks);
    parents_.clear();
    ann_.clear();
    veto_seen_.clear();
    veto_max_ = 0;
    veto_any_ = false;
    state_ = St::kFlood;
    ctx.label_phase(degenerate_ ? "tz.flood degenerate"
                                : shared_->labels[attempt_].flood);
    lm_self_ = degenerate_ ? id_ == 0 : coin(attempt_);
    if (lm_self_) {
      lm_.push_back(LmEntry{.landmark = id_});
      lm_known_.insert(id_);
      const std::uint32_t words[] = {token(), id_, 1};
      ctx.send_all(
          {.type = kMsgTzLm, .bits = shared_->id_width, .words = words});
    }
  }

  void round_flood(Context& ctx, std::span<const Received> inbox) {
    // Stage the hits of landmarks not yet known. Ports ascend within an
    // inbox (senders arrive in id order and ports are sorted by neighbour
    // id), so sorting by (landmark, hop, port) keeps each landmark's
    // least-hop senders — its BFS parents — in inbox order.
    hits_.clear();
    for (const Received& r : inbox) {
      if (!tagged(r, kMsgTzLm)) continue;
      const NodeId l = r.msg.words[1];
      if (!lm_known_.contains(l)) hits_.push_back({l, r.msg.words[2], r.port});
    }
    std::sort(hits_.begin(), hits_.end());
    fresh_.clear();
    for (std::size_t i = 0; i < hits_.size();) {
      const Hit& least = hits_[i];
      LmEntry e{least.landmark, least.hop, least.port,
                static_cast<std::uint32_t>(parents_.size()), 0};
      for (; i < hits_.size() && hits_[i].landmark == least.landmark; ++i) {
        if (hits_[i].hop != least.hop) continue;
        parents_.push_back(hits_[i].port);
        ++e.parents_count;
      }
      fresh_.push_back(e);
      lm_known_.insert(e.landmark);
      const std::uint32_t words[] = {token(), e.landmark, e.dist + 1};
      ctx.send_all(
          {.type = kMsgTzLm, .bits = shared_->id_width, .words = words});
    }
    merge_fresh(lm_, fresh_, &LmEntry::landmark);
  }

  bool pulse_flood(Context& ctx) {
    if (lm_.empty()) return rejected_attempt(ctx);  // empty sample
    dva_ = graph::kUnreachable;
    for (const LmEntry& e : lm_) {
      if (e.dist < dva_) {
        dva_ = e.dist;
        l_of_ = e.landmark;  // ascending order = least id on ties
      }
    }
    state_ = St::kAnnounce;
    ctx.label_phase(degenerate_ ? "tz.announce degenerate"
                                : shared_->labels[attempt_].announce);
    if (dva_ >= 1) {
      const std::uint32_t words[] = {token(), id_, dva_, 1};
      ctx.send_all({.type = kMsgTzAnn,
                    .bits = shared_->id_width + shared_->cnt_width,
                    .words = words});
    }
    return true;
  }

  void round_announce(Context& ctx, std::span<const Received> inbox) {
    // Stage the announcements of nodes not yet heard from, then keep each
    // node's least (hop, port) and forward in ascending node order.
    ann_stage_.clear();
    for (const Received& r : inbox) {
      if (!tagged(r, kMsgTzAnn)) continue;
      const NodeId v = r.msg.words[1];
      if (v == id_ || find_ann(v) != nullptr) continue;
      ann_stage_.push_back({.node = v,
                            .h = r.msg.words[3],
                            .dva = r.msg.words[2],
                            .port = r.port});
    }
    std::sort(ann_stage_.begin(), ann_stage_.end(),
              [](const AnnEntry& a, const AnnEntry& b) {
                return std::tie(a.node, a.h, a.port) <
                       std::tie(b.node, b.h, b.port);
              });
    ann_fresh_.clear();
    for (std::size_t i = 0; i < ann_stage_.size(); ++i) {
      AnnEntry e = ann_stage_[i];
      if (i > 0 && ann_stage_[i - 1].node == e.node) continue;
      e.in_cluster = e.h < e.dva;
      ann_fresh_.push_back(e);
      if (e.in_cluster) {  // interior of v's strict ball: keep flooding
        const std::uint32_t words[] = {token(), e.node, e.dva, e.h + 1};
        ctx.send_all({.type = kMsgTzAnn,
                      .bits = shared_->id_width + shared_->cnt_width,
                      .words = words});
      }
    }
    merge_fresh(ann_, ann_fresh_, &AnnEntry::node);
  }

  bool pulse_announce(Context& ctx) {
    if (degenerate_) return accept_attempt(ctx);  // fallback skips the cap
    std::size_t cluster = 0;
    for (const AnnEntry& e : ann_) cluster += e.in_cluster ? 1 : 0;
    state_ = St::kVeto;
    ctx.label_phase(shared_->labels[attempt_].veto);
    if (cluster > shared_->cap) {
      veto_any_ = true;
      veto_max_ = std::max(veto_max_, cluster);
      veto_seen_.insert(id_);
      const std::uint32_t words[] = {token(), id_,
                                     static_cast<std::uint32_t>(cluster)};
      ctx.send_all({.type = kMsgTzVeto,
                    .bits = shared_->id_width + shared_->cnt_width,
                    .words = words});
    }
    return true;
  }

  void round_veto(Context& ctx, std::span<const Received> inbox) {
    for (const Received& r : inbox) {
      if (!tagged(r, kMsgTzVeto)) continue;
      const NodeId origin = r.msg.words[1];
      veto_any_ = true;
      veto_max_ = std::max<std::size_t>(veto_max_, r.msg.words[2]);
      if (veto_seen_.insert(origin)) ctx.send_all(r.msg);
    }
  }

  bool pulse_veto(Context& ctx) {
    if (!veto_any_) return accept_attempt(ctx);
    // Rejected: remember the best (least global max cluster) sample seen,
    // exactly like the centralized resample loop.
    if (veto_max_ < best_max_) {
      best_max_ = veto_max_;
      best_attempt_ = attempt_;
      best_lm_ = lm_;
      best_parents_ = parents_;
      best_ann_ = ann_;
      best_lm_self_ = lm_self_;
      have_best_ = true;
    }
    return rejected_attempt(ctx);
  }

  bool rejected_attempt(Context& ctx) {
    ++attempt_;
    if (attempt_ < shared_->max_attempts) {
      start_attempt(ctx);
      return true;
    }
    if (have_best_) {
      lm_ = std::move(best_lm_);
      parents_ = std::move(best_parents_);
      ann_ = std::move(best_ann_);
      lm_self_ = best_lm_self_;
      dva_ = graph::kUnreachable;
      for (const LmEntry& e : lm_) {
        if (e.dist < dva_) {
          dva_ = e.dist;
          l_of_ = e.landmark;
        }
      }
      attempt_ = shared_->max_attempts + best_attempt_;  // shared token
      return enter_register(ctx);
    }
    // Every attempt sampled empty: the centralized fallback declares node
    // 0 the sole landmark; run one more (cap-exempt) flood for it.
    degenerate_ = true;
    start_attempt(ctx);
    return true;
  }

  bool accept_attempt(Context& ctx) { return enter_register(ctx); }

  bool enter_register(Context& ctx) {
    state_ = St::kRegister;
    ctx.label_phase("tz.register");
    if (dva_ >= 1 && dva_ != graph::kUnreachable) {
      const LmEntry* e = find_lm(l_of_);
      if (e == nullptr) {
        flag_.raise(ConstructStatus::kIncompleteInfo, "no landmark heard");
        return true;
      }
      const std::uint32_t words[] = {token(), id_, l_of_};
      for (const PortId p : parents_of(*e)) {
        ctx.send(p, {.type = kMsgTzReg, .bits = 2 * shared_->id_width,
                     .words = words});
      }
    }
    return true;
  }

  void round_register(Context& ctx, std::span<const Received> inbox) {
    for (const Received& r : inbox) {
      if (!tagged(r, kMsgTzReg)) continue;
      const NodeId v = r.msg.words[1];
      const NodeId l = r.msg.words[2];
      if (l == id_) {
        exit_stage_.push_back({v, r.port});
        continue;
      }
      if (!reg_seen_.insert(v)) continue;
      const LmEntry* e = find_lm(l);
      if (e == nullptr) {
        flag_.raise(ConstructStatus::kInconsistent,
                    "registration for an unknown landmark");
        continue;
      }
      const std::uint32_t words[] = {token(), v, l};
      for (const PortId p : parents_of(*e)) {
        ctx.send(p, {.type = kMsgTzReg, .bits = 2 * shared_->id_width,
                     .words = words});
      }
    }
    // All shortest-path successors toward v report in the same round; keep
    // the least port = least id.
    if (exit_stage_.empty()) return;
    exit_learned_.insert(exit_learned_.end(), exit_stage_.begin(),
                         exit_stage_.end());
    exit_stage_.clear();
    std::sort(exit_learned_.begin(), exit_learned_.end());
    exit_learned_.erase(
        std::unique(exit_learned_.begin(), exit_learned_.end(),
                    [](const ExitEntry& a, const ExitEntry& b) {
                      return a.node == b.node;
                    }),
        exit_learned_.end());
  }

  void enter_audit(Context& ctx) {
    state_ = St::kAudit;
    ctx.label_phase("tz.audit");
    const auto d = static_cast<PortId>(degree_);
    for (PortId p = 0; p < d; ++p) {
      if (!ctx.port_up(p)) {
        flag_.raise(ConstructStatus::kTopologyChanged,
                    "incident link down at audit");
      }
    }
    std::vector<std::uint32_t> words{token(),
                                     static_cast<std::uint32_t>(lm_.size())};
    words.reserve(3 + 2 * lm_.size() + 3 * (ann_.size() + 1));
    for (const LmEntry& e : lm_) {
      words.push_back(e.landmark);
      words.push_back(e.dist);
    }
    // Cluster entries (v, d̂(v), d(v, A)) ascending by v, plus a self entry
    // — the seed of the neighbour-by-neighbour completeness induction.
    const std::size_t count_at = words.size();
    words.push_back(0);  // the entry count, patched below
    bool self = dva_ >= 1 && dva_ != graph::kUnreachable;
    for (const AnnEntry& e : ann_) {
      if (self && e.node > id_) {
        words.insert(words.end(), {id_, 0, dva_});
        self = false;
      }
      if (e.in_cluster) words.insert(words.end(), {e.node, e.h, e.dva});
    }
    if (self) words.insert(words.end(), {id_, 0, dva_});
    const auto entries =
        static_cast<std::uint32_t>((words.size() - count_at - 1) / 3);
    words[count_at] = entries;
    ctx.send_all(
        {.type = kMsgTzAudit,
         .bits = 2 * shared_->cnt_width +
                 static_cast<std::uint32_t>(lm_.size()) *
                     (shared_->id_width + shared_->cnt_width) +
                 entries * (shared_->id_width + 2 * shared_->cnt_width),
         .words = words});
  }

  void round_audit(Context&, std::span<const Received> inbox) {
    for (const Received& r : inbox) {
      if (!tagged(r, kMsgTzAudit)) continue;
      ++audit_msgs_;
      std::size_t i = 1;
      const std::size_t lm_count = r.msg.words[i++];
      if (lm_count != lm_.size()) {
        flag_.raise(ConstructStatus::kInconsistent,
                    "landmark sets disagree across a link");
        continue;
      }
      auto mine = lm_.begin();
      bool ok = true;
      for (std::size_t k = 0; k < lm_count; ++k, ++mine) {
        const NodeId l = r.msg.words[i++];
        const std::uint32_t d_they = r.msg.words[i++];
        if (mine->landmark != l) {
          ok = false;
          break;
        }
        const std::uint32_t d_mine = mine->dist;
        if ((d_they > d_mine ? d_they - d_mine : d_mine - d_they) > 1) {
          flag_.raise(ConstructStatus::kInconsistent,
                      "landmark distance Lipschitz violation");
        }
      }
      if (!ok) {
        flag_.raise(ConstructStatus::kInconsistent,
                    "landmark sets disagree across a link");
        continue;
      }
      // The entries ascend by node (enter_audit), so one cursor walks ann_.
      const std::size_t entries = r.msg.words[i++];
      auto it = ann_.begin();
      for (std::size_t k = 0; k < entries; ++k) {
        const NodeId v = r.msg.words[i++];
        const std::uint32_t h_they = r.msg.words[i++];
        const std::uint32_t dva_v = r.msg.words[i++];
        if (v == id_) {
          if (h_they > 1 || dva_v != dva_) {
            flag_.raise(ConstructStatus::kInconsistent,
                        "neighbour view of this node is off");
          }
          continue;
        }
        while (it != ann_.end() && it->node < v) ++it;
        if (it == ann_.end() || it->node != v) {
          if (h_they + 1 < dva_v) {
            flag_.raise(ConstructStatus::kInconsistent,
                        "cluster completeness violation");
          }
          continue;
        }
        const std::uint32_t h_mine = it->h;
        if ((h_they > h_mine ? h_they - h_mine : h_mine - h_they) > 1 ||
            it->dva != dva_v) {
          flag_.raise(ConstructStatus::kInconsistent,
                      "ball distance Lipschitz violation");
        }
      }
    }
  }

  const TzShared* shared_;
  NodeId id_;
  std::size_t degree_;
  St state_ = St::kTreeFlood;
  NodeFlag flag_;

  // Tree phase.
  std::uint32_t depth_ = graph::kUnreachable;
  int parent_port_ = -1;
  std::vector<PortId> children_;
  std::size_t pending_ = 0;
  std::uint64_t acc_ = 0;
  std::uint64_t total_ = 0;
  bool have_total_ = false;
  bool passive_ = false;
  double avg_degree_ = 0.0;

  // Election.
  bool lm_self_ = false;
  bool degenerate_ = false;
  IdSet veto_seen_;
  std::size_t veto_max_ = 0;
  bool veto_any_ = false;
  bool have_best_ = false;
  std::size_t best_attempt_ = 0;
  std::size_t best_max_ = std::numeric_limits<std::size_t>::max();
  std::vector<LmEntry> best_lm_;
  std::vector<PortId> best_parents_;
  std::vector<AnnEntry> best_ann_;
  bool best_lm_self_ = false;

  // Registration / audit.
  IdSet reg_seen_;
  std::vector<ExitEntry> exit_stage_;
  std::size_t audit_msgs_ = 0;

  // Landmark-flood and announce staging, reused every round.
  struct Hit {
    NodeId landmark = 0;
    std::uint32_t hop = 0;
    PortId port = 0;
    friend auto operator<=>(const Hit&, const Hit&) = default;
  };
  IdSet lm_known_;  // lm_'s landmarks, while the flood runs
  std::vector<Hit> hits_;
  std::vector<LmEntry> fresh_;
  std::vector<AnnEntry> ann_stage_;
  std::vector<AnnEntry> ann_fresh_;
};

/// Sum of `rounds` over phase rows whose label starts with `prefix`.
std::size_t rounds_for(const std::vector<congest::PhaseStats>& rows,
                       const std::string& prefix) {
  std::size_t total = 0;
  for (const auto& row : rows) {
    if (row.label.rfind(prefix, 0) == 0) total += row.rounds;
  }
  return total;
}

}  // namespace

TzConstructionResult distributed_tz_construction(
    const graph::Graph& g, const schemes::TzOptions& options,
    const ProtocolOptions& protocol) {
  const obs::TraceSpan span("net.construct.tz");
  const std::size_t n = g.node_count();
  if (!graph::is_connected(g)) {
    throw schemes::SchemeInapplicable("tz: graph disconnected");
  }

  TzShared shared;
  shared.n = n;
  shared.id_width = bitio::id_width(n);
  shared.cnt_width = bitio::ceil_log2_plus1(n);
  shared.cap = schemes::TzScheme::cluster_cap(n);
  shared.max_attempts = std::max<std::size_t>(options.max_resamples, 1);
  shared.p = n >= 2 ? std::min(1.0, std::sqrt(std::log(static_cast<double>(
                                                  n)) /
                                              static_cast<double>(n)))
                    : 1.0;
  shared.expected_landmarks =
      static_cast<std::size_t>(std::ceil(shared.p * static_cast<double>(n)));
  // The exact stream the centralized sampler consumes: n draws per
  // attempt, in node order, from one mt19937_64(seed).
  graph::Rng rng(options.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  shared.uniforms.reserve(shared.max_attempts * n);
  for (std::size_t i = 0; i < shared.max_attempts * n; ++i) {
    shared.uniforms.push_back(unit(rng));
  }
  for (std::size_t a = 0; a < shared.max_attempts; ++a) {
    const std::string suffix = " a" + std::to_string(a);
    shared.labels.push_back({"tz.flood" + suffix, "tz.announce" + suffix,
                             "tz.veto" + suffix});
  }

  std::vector<std::unique_ptr<TzNode>> nodes;
  nodes.reserve(n);
  std::vector<congest::ProtocolNode*> ptrs;
  ptrs.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    nodes.push_back(std::make_unique<TzNode>(&shared, v, g.degree(v)));
    ptrs.push_back(nodes.back().get());
  }

  congest::EngineOptions eng_opt;
  eng_opt.threads = protocol.threads;
  eng_opt.max_rounds = protocol.max_rounds;
  congest::Engine engine(g, eng_opt);
  if (protocol.faults != nullptr) engine.schedule(*protocol.faults);
  const auto run = engine.run(ptrs);

  TzConstructionResult result;
  result.rounds = run.rounds;
  result.messages = run.messages;
  result.message_bits = run.message_bits;
  result.dropped = run.dropped;
  result.phases = run.phases;
  result.phase_stats = run.phase_stats;
  if (run.status != congest::RunStatus::kOk) {
    result.status = ConstructStatus::kStalled;
    result.detail = to_string(run.status);
    account("tz", run, result.status);
    return result;
  }
  merge_flags(nodes, result.status, result.detail);

  // A consistent run has every node holding the same landmark set.
  std::vector<NodeId> landmarks;
  if (!nodes.empty()) {
    for (const auto& e : nodes[0]->lm_) landmarks.push_back(e.landmark);
  }
  if (result.status == ConstructStatus::kOk) {
    for (NodeId v = 1; v < n; ++v) {
      if (nodes[v]->lm_.size() != landmarks.size() ||
          !std::equal(landmarks.begin(), landmarks.end(),
                      nodes[v]->lm_.begin(),
                      [](NodeId l, const auto& e) { return l == e.landmark; })) {
        result.status = ConstructStatus::kInconsistent;
        result.detail = "node " + std::to_string(v) +
                        ": landmark set disagrees with node 0";
        break;
      }
    }
  }
  if (result.status != ConstructStatus::kOk) {
    account("tz", run, result.status);
    return result;
  }

  // Encode each node's table from its learned state through the encoder
  // TzScheme's central build uses.
  {
    const obs::TraceSpan encode_span("net.construct.encode");
    std::vector<bitio::BitVector> node_bits(n);
    for (NodeId w = 0; w < n; ++w) {
      std::vector<PortId> ports;
      for (const auto& e : nodes[w]->lm_) {  // the landmark set, in order
        ports.push_back(e.landmark == w ? 0 : e.least_port);
      }
      std::vector<schemes::TableEntry> cluster;
      for (const auto& e : nodes[w]->ann_) {
        if (e.in_cluster) cluster.push_back({e.node, e.port});
      }
      node_bits[w] = schemes::build_landmark_node_bits(g, w, ports, cluster);
    }
    try {
      result.scheme = std::make_unique<schemes::TzScheme>(
          g, landmarks, std::move(node_bits));
    } catch (const std::invalid_argument& e) {
      result.status = ConstructStatus::kInvalidTables;
      result.detail = e.what();
      account("tz", run, result.status);
      return result;
    }
  }
  // Learned per-node data the differential tests compare against the
  // centralized builder. Each exit port l(v) learned must be the one the
  // decoded label carries: a registration lost to a fault leaves it
  // unlearned, or learned from a non-least successor, while the audit and
  // the stretch check can still pass (the decoder derives its own).
  result.landmark_of.resize(n);
  result.exit_ports.assign(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    result.landmark_of[v] = nodes[v]->dva_ == 0 ? v : nodes[v]->l_of_;
    if (nodes[v]->dva_ == 0) continue;
    const NodeId l = result.landmark_of[v];
    const auto& learned = nodes[l]->exit_learned_;
    const auto it = std::lower_bound(
        learned.begin(), learned.end(), v,
        [](const auto& e, NodeId key) { return e.node < key; });
    ConstructStatus bad = ConstructStatus::kOk;
    std::string what;
    if (it == learned.end() || it->node != v) {
      bad = ConstructStatus::kIncompleteInfo;
      what = "landmark " + std::to_string(l) + " never learned its exit port";
    } else {
      result.exit_ports[v] = it->port;
      if (it->port != result.scheme->exit_port(v)) {
        bad = ConstructStatus::kInconsistent;
        what = "landmark " + std::to_string(l) + " learned exit port " +
               std::to_string(it->port) + ", the label carries " +
               std::to_string(result.scheme->exit_port(v));
      }
    }
    if (static_cast<int>(bad) > static_cast<int>(result.status)) {
      result.status = bad;
      result.detail = "node " + std::to_string(v) + ": " + what;
    }
  }
  if (result.status != ConstructStatus::kOk) {
    result.scheme.reset();
    account("tz", run, result.status);
    return result;
  }
  result.landmark_count = landmarks.size();

  // Attempt bookkeeping + per-phase rounds for the accepted attempt.
  const std::size_t raw_attempt = nodes.empty() ? 0 : nodes[0]->attempt_;
  result.accepted_attempt = raw_attempt >= shared.max_attempts
                                ? raw_attempt - shared.max_attempts
                                : raw_attempt;
  bool degenerate = false;
  for (const auto& row : run.phase_stats) {
    if (row.label.rfind("tz.flood degenerate", 0) == 0) degenerate = true;
  }
  const std::string suffix =
      degenerate ? std::string("degenerate")
                 : "a" + std::to_string(result.accepted_attempt);
  result.tree_rounds = rounds_for(run.phase_stats, "tz.tree");
  result.flood_rounds = rounds_for(run.phase_stats, "tz.flood " + suffix);
  result.announce_rounds =
      rounds_for(run.phase_stats, "tz.announce " + suffix);
  result.register_rounds = rounds_for(run.phase_stats, "tz.register");
  result.audit_rounds = rounds_for(run.phase_stats, "tz.audit");
  account("tz", run, result.status);
  return result;
}

}  // namespace optrt::net
