#include "net/congest.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <limits>

#include "core/parallel.hpp"
#include "obs/trace.hpp"

namespace optrt::net::congest {

namespace {

/// Record::port of a send_all: one message over every port of the sender.
constexpr PortId kEveryPort = std::numeric_limits<PortId>::max();

}  // namespace

/// One queued send or send_all: `from` sends over `port`, or over each of
/// its ports when port == kEveryPort. Its words are [offset, offset +
/// length) of the outbox's buffer.
struct Record {
  NodeId from = 0;
  PortId port = 0;
  std::uint16_t type = 0;
  std::uint32_t bits = 0;
  std::uint32_t length = 0;
  std::size_t offset = 0;
};

struct Outbox {
  std::vector<Record> records;
  std::vector<std::uint32_t> words;
  std::size_t messages = 0;  // charged by this range's sends
  std::uint64_t message_bits = 0;
  std::string label;      // the range's last label_phase()
  bool advanced = false;  // some on_phase_end of the range returned true
};

const char* to_string(RunStatus status) noexcept {
  switch (status) {
    case RunStatus::kOk:
      return "ok";
    case RunStatus::kRoundLimit:
      return "round-limit";
    case RunStatus::kPhaseLimit:
      return "phase-limit";
  }
  return "unknown";
}

std::size_t Context::node_count() const noexcept {
  return eng_->graph().node_count();
}

std::size_t Context::degree() const noexcept {
  return eng_->graph().degree(id_);
}

NodeId Context::neighbor(PortId p) const {
  return eng_->graph().neighbor_at(id_, p);
}

bool Context::port_up(PortId p) const {
  return eng_->live_.arc_live(eng_->graph().arc_begin(id_) + p);
}

void Context::queue(PortId p, const Message& m, std::size_t copies) {
  out_->records.push_back(Record{id_, p, m.type, m.bits,
                                 static_cast<std::uint32_t>(m.words.size()),
                                 out_->words.size()});
  out_->words.insert(out_->words.end(), m.words.begin(), m.words.end());
  out_->messages += copies;
  out_->message_bits += copies * std::uint64_t{m.bits};
}

void Context::send(PortId p, const Message& m) { queue(p, m, 1); }

void Context::send_all(const Message& m) { queue(kEveryPort, m, degree()); }

void Context::label_phase(std::string_view label) { out_->label = label; }

Engine::Engine(const graph::Graph& g, EngineOptions options)
    : live_(g), options_(options), far_port_(g.arc_count()) {
  if (options_.max_rounds == 0) {
    options_.max_rounds = 64 * g.node_count() + 256;
  }
  if (options_.max_phases == 0) {
    options_.max_phases = 8 * g.node_count() + 512;
  }
  // Walking every slice in order meets each node's ports in ascending
  // order, so the next free port at the far end is the one back here.
  std::vector<PortId> next_port(g.node_count(), 0);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const std::size_t begin = g.arc_begin(u);
    for (std::size_t p = 0; p < g.degree(u); ++p) {
      far_port_[begin + p] = next_port[g.neighbor_at(u, p)]++;
    }
  }
}

RunStats Engine::run(std::span<ProtocolNode* const> nodes) {
  const obs::TraceSpan run_span("net.congest.run");
  const graph::Graph& g = graph();
  const std::size_t n = g.node_count();
  RunStats stats;
  stats.phase_stats.emplace_back();
  core::ThreadPool pool(options_.threads);

  // Every buffer below lives for the whole run and is cleared, not freed,
  // between rounds. Four ranges per thread, like the pool's own chunking,
  // even out nodes of uneven cost. The two outbox sets alternate: an
  // activation fills one while the inboxes it reads view the other.
  std::array<std::vector<Outbox>, 2> sets;
  for (std::vector<Outbox>& set : sets) set.resize(4 * pool.thread_count());
  std::size_t filled = 1;   // the set the last activation filled
  std::size_t ranges = 0;   // how many of its outboxes it filled
  std::size_t charged = 0;  // messages it charged
  std::vector<Received> received;  // the round's inboxes, back to back
  std::vector<std::size_t> inbox_begin(n + 1);
  std::vector<std::size_t> cursor(n);

  // Runs `body` for each listed node, one contiguous range of the list
  // per outbox, then folds the outboxes' charges and labels in range
  // order. The ranges tile the list in order, so every downstream bit is
  // independent of the thread count.
  const auto activate = [&](std::span<const NodeId> ids, auto&& body) {
    filled ^= 1;
    std::vector<Outbox>& outboxes = sets[filled];
    ranges = std::min(outboxes.size(), ids.size());
    const auto run_ranges = [&](std::size_t begin, std::size_t end) {
      for (std::size_t r = begin; r < end; ++r) {
        Outbox& out = outboxes[r];
        out.records.clear();
        out.words.clear();
        out.messages = 0;
        out.message_bits = 0;
        out.label.clear();
        out.advanced = false;
        for (std::size_t i = ids.size() * r / ranges;
             i < ids.size() * (r + 1) / ranges; ++i) {
          Context ctx(this, ids[i], &out);
          out.advanced |= body(ids[i], ctx);
        }
      }
    };
    // std::ref keeps std::function from copying the closure to the heap.
    pool.parallel_for(ranges, std::ref(run_ranges));
    bool advanced = false;
    charged = 0;
    PhaseStats& row = stats.phase_stats.back();
    for (std::size_t r = 0; r < ranges; ++r) {
      const Outbox& out = outboxes[r];
      advanced |= out.advanced;
      if (!out.label.empty()) row.label = out.label;
      charged += out.messages;
      row.message_bits += out.message_bits;
      stats.message_bits += out.message_bits;
    }
    row.messages += charged;
    stats.messages += charged;
    return advanced;
  };

  // Calls visit(outbox, record, arc, receiver) for every message the last
  // activation queued: ranges in order, which is ascending sender order,
  // and each sender's records in send order, a send_all expanded over the
  // sender's arcs.
  const auto each_message = [&](auto&& visit) {
    for (std::size_t r = 0; r < ranges; ++r) {
      const Outbox& out = sets[filled][r];
      for (const Record& rec : out.records) {
        const std::size_t arc0 = g.arc_begin(rec.from);
        const std::span<const NodeId> to = g.neighbors(rec.from);
        const bool every = rec.port == kEveryPort;
        const std::size_t end = every ? to.size() : rec.port + 1;
        for (std::size_t p = every ? 0 : rec.port; p < end; ++p) {
          visit(out, rec, arc0 + p, to[p]);
        }
      }
    }
  };

  std::vector<NodeId> everyone(n);
  for (NodeId v = 0; v < n; ++v) everyone[v] = v;
  activate(everyone, [&](NodeId v, Context& ctx) {
    nodes[v]->on_start(ctx);
    return true;
  });

  std::vector<NodeId> receivers;
  for (;;) {
    if (charged == 0) {
      // Quiescence: pulse every node; stop when none wants to continue.
      if (++stats.phases > options_.max_phases) {
        stats.status = RunStatus::kPhaseLimit;
        break;
      }
      const obs::TraceSpan pulse_span("net.congest.pulse");
      if (stats.phase_stats.back().rounds != 0 ||
          stats.phase_stats.back().messages != 0) {
        stats.phase_stats.emplace_back();
      }
      const bool advanced = activate(everyone, [&](NodeId v, Context& ctx) {
        return nodes[v]->on_phase_end(ctx);
      });
      if (!advanced) {
        stats.status = RunStatus::kOk;
        break;
      }
      continue;
    }

    if (++stats.rounds > options_.max_rounds) {
      stats.status = RunStatus::kRoundLimit;
      break;
    }
    const obs::TraceSpan round_span("net.congest.round");
    PhaseStats& row = stats.phase_stats.back();
    ++row.rounds;
    live_.apply_until(stats.rounds);

    // Counting sort by receiver. A message over a down link is dropped
    // (its send stays charged); both arcs of a link share one liveness.
    // The sort is stable, so each inbox keeps (sender, send) order.
    std::fill(inbox_begin.begin(), inbox_begin.end(), 0);
    std::size_t kept = 0;
    each_message([&](const Outbox&, const Record&, std::size_t arc, NodeId to) {
      if (live_.arc_live(arc)) {
        ++inbox_begin[to + 1];
        ++kept;
      } else {
        ++stats.dropped;
        ++row.dropped;
      }
    });
    receivers.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (inbox_begin[v + 1] != 0) receivers.push_back(v);
      inbox_begin[v + 1] += inbox_begin[v];
    }
    std::copy(inbox_begin.begin(), inbox_begin.end() - 1, cursor.begin());
    received.resize(kept);
    each_message([&](const Outbox& out, const Record& rec, std::size_t arc,
                     NodeId to) {
      if (!live_.arc_live(arc)) return;
      received[cursor[to]++] = Received{
          far_port_[arc], Message{rec.type, rec.bits,
                                  {out.words.data() + rec.offset, rec.length}}};
    });
    activate(receivers, [&](NodeId v, Context& ctx) {
      nodes[v]->on_round(
          ctx, std::span<const Received>(received.data() + inbox_begin[v],
                                         inbox_begin[v + 1] - inbox_begin[v]));
      return true;
    });
  }

  // Drop the trailing empty row the final pulse opened.
  while (!stats.phase_stats.empty() &&
         stats.phase_stats.back().rounds == 0 &&
         stats.phase_stats.back().messages == 0 &&
         stats.phase_stats.back().label.empty()) {
    stats.phase_stats.pop_back();
  }
  return stats;
}

}  // namespace optrt::net::congest
