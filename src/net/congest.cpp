#include "net/congest.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "core/parallel.hpp"
#include "obs/trace.hpp"

namespace optrt::net::congest {

/// One queued message: sent by `from`, to be delivered to `to` at its
/// arrival port `to_port`. Its words are [offset, offset + length) of the
/// sender's outbox buffer until the merge, then of the round's arena.
struct Flight {
  NodeId from = 0;
  NodeId to = 0;
  PortId to_port = 0;
  std::uint16_t type = 0;
  std::uint32_t bits = 0;
  std::uint32_t length = 0;
  std::size_t offset = 0;
};

struct Outbox {
  std::vector<Flight> flights;
  std::vector<std::uint32_t> words;
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

void Context::queue(PortId p, const Message& m, std::size_t offset) {
  out_->flights.push_back(Flight{
      id_, neighbor(p), eng_->far_port_[eng_->graph().arc_begin(id_) + p],
      m.type, m.bits, static_cast<std::uint32_t>(m.words.size()), offset});
}

void Context::send(PortId p, const Message& m) {
  const std::size_t offset = out_->words.size();
  out_->words.insert(out_->words.end(), m.words.begin(), m.words.end());
  queue(p, m, offset);
}

void Context::send_all(const Message& m) {
  const std::size_t offset = out_->words.size();
  out_->words.insert(out_->words.end(), m.words.begin(), m.words.end());
  const auto d = static_cast<PortId>(degree());
  for (PortId p = 0; p < d; ++p) queue(p, m, offset);
}

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
  // even out nodes of uneven cost.
  std::vector<Outbox> outboxes(4 * pool.thread_count());
  std::vector<Flight> flights;           // this round's sends, merged
  std::vector<std::uint32_t> arena;      // their words
  std::vector<std::uint32_t> delivered;  // last round's arena
  std::vector<Received> received;        // its flights, grouped by receiver
  std::vector<std::size_t> inbox_begin(n + 1);
  std::vector<std::size_t> cursor(n);

  // Runs `body` for each listed node, one contiguous range of the list
  // per outbox, then merges the outboxes into `flights` and `arena` in
  // range order — the only place per-node results meet. It is sequential
  // and the ranges tile the list in order, so every downstream bit is
  // independent of the thread count.
  const auto activate = [&](std::span<const NodeId> ids, auto&& body) {
    const std::size_t ranges = std::min(outboxes.size(), ids.size());
    const auto run_ranges = [&](std::size_t begin, std::size_t end) {
      for (std::size_t r = begin; r < end; ++r) {
        Outbox& out = outboxes[r];
        out.flights.clear();
        out.words.clear();
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
    PhaseStats& row = stats.phase_stats.back();
    for (std::size_t r = 0; r < ranges; ++r) {
      const Outbox& out = outboxes[r];
      advanced |= out.advanced;
      if (!out.label.empty()) row.label = out.label;
      const std::size_t base = arena.size();
      arena.insert(arena.end(), out.words.begin(), out.words.end());
      for (Flight f : out.flights) {
        ++stats.messages;
        ++row.messages;
        stats.message_bits += f.bits;
        row.message_bits += f.bits;
        f.offset += base;
        flights.push_back(f);
      }
    }
    return advanced;
  };

  std::vector<NodeId> everyone(n);
  for (NodeId v = 0; v < n; ++v) everyone[v] = v;
  activate(everyone, [&](NodeId v, Context& ctx) {
    nodes[v]->on_start(ctx);
    return true;
  });

  std::vector<NodeId> receivers;
  for (;;) {
    if (flights.empty()) {
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

    // Drop the flights crossing a down link (their sends stay charged),
    // then counting-sort the rest by receiver. The sort is stable, so each
    // inbox keeps (sender, send) order.
    std::fill(inbox_begin.begin(), inbox_begin.end(), 0);
    std::size_t kept = 0;
    for (const Flight& f : flights) {
      if (!live_.arc_live(g.arc_begin(f.to) + f.to_port)) {
        ++stats.dropped;
        ++row.dropped;
        continue;
      }
      ++inbox_begin[f.to + 1];
      flights[kept++] = f;
    }
    flights.resize(kept);
    receivers.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (inbox_begin[v + 1] != 0) receivers.push_back(v);
      inbox_begin[v + 1] += inbox_begin[v];
    }
    std::copy(inbox_begin.begin(), inbox_begin.end() - 1, cursor.begin());
    std::swap(arena, delivered);
    arena.clear();
    received.resize(kept);
    for (const Flight& f : flights) {
      received[cursor[f.to]++] = Received{
          f.to_port,
          Message{f.type, f.bits, {delivered.data() + f.offset, f.length}}};
    }
    flights.clear();
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
