#include "net/congest.hpp"

#include <algorithm>
#include <utility>

#include "core/parallel.hpp"

namespace optrt::net::congest {

/// One queued message: sent by `from` in the previous round, to be
/// delivered to `to` at its arrival port `to_port`.
struct Flight {
  NodeId from = 0;
  NodeId to = 0;
  PortId to_port = 0;
  Message msg;
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
  return eng_->g_->node_count();
}

std::size_t Context::degree() const noexcept { return eng_->g_->degree(id_); }

NodeId Context::neighbor(PortId p) const {
  return eng_->g_->neighbor_at(id_, p);
}

bool Context::port_up(PortId p) const {
  return eng_->link_usable(id_, neighbor(p));
}

void Context::send(PortId p, Message m) {
  const NodeId to = neighbor(p);
  const auto back = eng_->g_->arc_index(to, id_);
  outbox_->push_back(Flight{
      id_, to, static_cast<PortId>(back - eng_->g_->arc_begin(to)),
      std::move(m)});
}

void Context::send_all(const Message& m) {
  const auto d = degree();
  for (PortId p = 0; p < d; ++p) send(p, m);
}

void Context::label_phase(std::string label) { *label_ = std::move(label); }

Engine::Engine(const graph::Graph& g, EngineOptions options)
    : g_(&g), options_(options), node_down_(g.node_count(), 0) {
  if (options_.max_rounds == 0) {
    options_.max_rounds = 64 * g.node_count() + 256;
  }
  if (options_.max_phases == 0) {
    options_.max_phases = 8 * g.node_count() + 512;
  }
}

void Engine::schedule(const FaultPlan& plan) {
  events_.insert(events_.end(), plan.events().begin(), plan.events().end());
  // Equal-time events keep insertion order (a fail then repair of the same
  // link at one instant is a no-op) — the Simulator's contract.
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
  next_event_ = 0;
}

bool Engine::link_usable(NodeId u, NodeId v) const {
  if (node_down_[u] || node_down_[v]) return false;
  if (failed_links_.empty()) return true;
  const std::uint64_t n = g_->node_count();
  const std::uint64_t a = std::min(u, v);
  const std::uint64_t b = std::max(u, v);
  return failed_links_.find(a * n + b) == failed_links_.end();
}

void Engine::apply_faults(std::uint64_t now) {
  const std::uint64_t n = g_->node_count();
  while (next_event_ < events_.size() && events_[next_event_].time <= now) {
    const FaultEvent& e = events_[next_event_++];
    const std::uint64_t key = std::uint64_t{std::min(e.u, e.v)} * n +
                              std::uint64_t{std::max(e.u, e.v)};
    switch (e.kind) {
      case FaultKind::kLinkFail:
        failed_links_.insert(key);
        break;
      case FaultKind::kLinkRepair:
        failed_links_.erase(key);
        break;
      case FaultKind::kNodeFail:
        node_down_[e.u] = 1;
        break;
      case FaultKind::kNodeRepair:
        node_down_[e.u] = 0;
        break;
    }
  }
}

RunStats Engine::run(std::span<ProtocolNode* const> nodes) {
  const std::size_t n = g_->node_count();
  RunStats stats;
  stats.phase_stats.emplace_back();
  core::ThreadPool pool(options_.threads);

  std::vector<Flight> flights;
  std::vector<std::vector<Received>> inbox(n);

  // Runs `body` for each listed node concurrently, then folds the
  // per-node outboxes into `flights` in list order — the only place
  // per-node results meet, and it is sequential and index-ordered, so
  // every downstream bit is independent of the thread count.
  struct Activation {
    std::vector<Flight> outbox;
    std::string label;
    bool advanced = false;
  };
  const auto activate = [&](const std::vector<NodeId>& ids, auto&& body) {
    auto acts = core::parallel_map<Activation>(
        pool, ids.size(), [&](std::size_t i) {
          Activation a;
          Context ctx(this, ids[i], &a.outbox, &a.label);
          a.advanced = body(ids[i], ctx);
          return a;
        });
    bool advanced = false;
    PhaseStats& row = stats.phase_stats.back();
    for (Activation& a : acts) {
      advanced |= a.advanced;
      if (!a.label.empty()) row.label = std::move(a.label);
      for (Flight& f : a.outbox) {
        ++stats.messages;
        ++row.messages;
        stats.message_bits += f.msg.bits;
        row.message_bits += f.msg.bits;
        flights.push_back(std::move(f));
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
    ++stats.phase_stats.back().rounds;
    apply_faults(stats.rounds);

    receivers.clear();
    for (Flight& f : flights) {
      if (!link_usable(f.from, f.to)) {
        ++stats.dropped;
        ++stats.phase_stats.back().dropped;
        continue;
      }
      if (inbox[f.to].empty()) receivers.push_back(f.to);
      inbox[f.to].push_back(Received{f.to_port, std::move(f.msg)});
    }
    flights.clear();
    std::sort(receivers.begin(), receivers.end());
    activate(receivers, [&](NodeId v, Context& ctx) {
      nodes[v]->on_round(ctx, std::span<const Received>(inbox[v]));
      inbox[v].clear();
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
