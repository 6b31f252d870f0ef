// serve-bulk: a self-hosted optrtd (serve::Server on a Unix socket, 2
// threads: an acceptor that mostly sleeps plus one worker) answering one
// connection that the measuring thread drives as a closed loop: each
// request leaves when the previous reply is back. Every request asks for
// the next hops of 4096 pairs on TZ over ba:2, so per-pair work (payload
// CRC, pair decode, label mapping, route_batch, response encode) dominates
// the round trip.
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>

#include "core/graph_io.hpp"
#include "model/fastpath.hpp"
#include "obs/metrics.hpp"
#include "schemes/serialization.hpp"
#include "schemes/tz.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace optrt::bench {

namespace {

constexpr std::size_t kServerThreads = 2;
constexpr std::size_t kPairs = 4096;

/// Distinct request frames, sent in turn.
constexpr std::size_t kPool = 64;

/// The traced run wraps (and replays) one request in this many.
constexpr std::size_t kServeSampleEvery = 16;

struct ServeState {
  explicit ServeState(graph::Graph graph) : g(std::move(graph)) {}
  ServeState(const ServeState&) = delete;
  ServeState& operator=(const ServeState&) = delete;
  ~ServeState() {
    client.reset();
    if (server) server->stop();
    if (server_thread.joinable()) server_thread.join();
  }

  graph::Graph g;  ///< outlives the scheme built on it
  std::unique_ptr<model::RoutingScheme> scheme;
  std::unique_ptr<serve::ArtifactStore> store;
  std::unique_ptr<serve::Server> server;
  std::string server_error;  ///< written by server_thread, read after join
  std::thread server_thread;
  std::optional<serve::Client> client;
};

struct Request {
  serve::Frame frame;
  std::vector<graph::NodeId> expected;  ///< the local FastPath oracle's hops
};

void set_timeouts(int fd) {
  // A wedged server fails the run instead of hanging it.
  struct timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

std::unique_ptr<ServeState> set_up(const Context& ctx) {
  obs::Trace* trace = ctx.tracer.trace();
  const Options& opt = ctx.opt;
  std::unique_ptr<ServeState> s;
  {
    obs::TraceSpan span(trace, "graph.generate_s");
    s = std::make_unique<ServeState>(
        power_law_graph(opt.smoke ? 64 : 1024, derive_seed(opt, kGraphAxis)));
  }
  {
    obs::TraceSpan span(trace, "schemes.build_s");
    s->scheme = std::make_unique<schemes::TzScheme>(
        s->g, schemes::TzOptions{.seed = derive_seed(opt, kSchemeAxis)});
  }
  const std::string art_dir = ctx.dir + "/artifacts";
  std::filesystem::create_directories(art_dir);
  {
    obs::TraceSpan span(trace, "schemes.serialize_s");
    core::save_graph(art_dir + "/g0.eg", s->g);
    schemes::save_artifact(art_dir + "/g0.ort", serialize_any(*s->scheme));
  }
  {
    obs::TraceSpan span(trace, "serve.store_load_s");
    s->store = std::make_unique<serve::ArtifactStore>(art_dir);
    const serve::LoadReport report = s->store->load();
    if (!report.ok()) {
      throw std::runtime_error(
          serve::format_load_failure(report.failures.front()));
    }
  }
  {
    obs::TraceSpan span(trace, "serve.bind_connect_s");
    serve::ServerConfig config;
    config.unix_path = ctx.dir + "/optrtd.sock";
    config.threads = kServerThreads;
    s->server = std::make_unique<serve::Server>(*s->store, config);
    s->server->bind();
    s->server_thread = std::thread([state = s.get()] {
      try {
        state->server->run();
      } catch (const std::exception& e) {
        state->server_error = e.what();
      }
    });
    s->client.emplace(serve::Client::connect_unix(config.unix_path));
    set_timeouts(s->client->fd());
    s->client->ping();
  }
  return s;
}

/// Seeded request frames: uniform sources, zipf(1.0) destinations over a
/// seeded permutation, with the answers a FastPath compiled locally from
/// the same scheme gives for them.
std::vector<Request> make_requests(const Options& opt,
                                   const model::RoutingScheme& scheme) {
  const std::size_t n = scheme.node_count();
  std::vector<double> cdf;
  double sum = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    sum += 1.0 / static_cast<double>(r + 1);
    cdf.push_back(sum);
  }
  std::vector<graph::NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), graph::NodeId{0});
  graph::Rng shuffle(derive_seed(opt, kPairsAxis, 1));
  std::shuffle(perm.begin(), perm.end(), shuffle);

  const auto oracle = scheme.compile_fast();
  graph::Rng rng(derive_seed(opt, kPairsAxis));
  std::uniform_int_distribution<graph::NodeId> node(
      0, static_cast<graph::NodeId>(n - 1));
  std::uniform_real_distribution<double> unit(0.0, cdf.back());
  std::vector<Request> pool;
  for (std::size_t i = 0; i < kPool; ++i) {
    std::vector<serve::QueryPair> pairs(kPairs);
    std::vector<model::RoutePair> routed(kPairs);
    for (std::size_t k = 0; k < kPairs; ++k) {
      serve::QueryPair& p = pairs[k];
      p.src = node(rng);
      do {
        const auto rank =
            std::lower_bound(cdf.begin(), cdf.end(), unit(rng)) - cdf.begin();
        p.dst = perm[std::min<std::size_t>(static_cast<std::size_t>(rank),
                                           n - 1)];
      } while (p.dst == p.src);
      routed[k] = {p.src, scheme.label_of(p.dst)};
    }
    Request req{serve::make_next_hop_request(0, pairs),
                std::vector<graph::NodeId>(kPairs)};
    oracle->route_batch(routed, req.expected);
    pool.push_back(std::move(req));
  }
  return pool;
}

/// Every response: an ok next-hop frame with the request's pair count and
/// exactly the oracle's hops. Returns the failure, empty when it holds.
std::string check_response(const serve::Frame& resp, const Request& req) {
  if (resp.is_error()) {
    return "error frame: " + serve::decode_error(resp).detail;
  }
  const auto ok_opcode = static_cast<std::uint8_t>(
      static_cast<std::uint8_t>(serve::Opcode::kNextHop) | serve::kResponseBit);
  if (resp.opcode != ok_opcode) return "unexpected response opcode";
  if (resp.pair_count != req.expected.size()) return "wrong pair count";
  try {
    if (serve::decode_next_hops(resp) != req.expected) {
      return "answers differ from the local FastPath oracle";
    }
  } catch (const std::exception& e) {
    return std::string("undecodable response: ") + e.what();
  }
  return {};
}

/// Replays each traced request frame in-process, stage by stage, through
/// the public functions the daemon's dispatch path calls.
void replay(const Context& ctx, ServeState& s, const std::vector<Request>& pool,
            const std::vector<std::size_t>& sampled, Gates& gates) {
  obs::Trace* trace = ctx.tracer.trace();
  const std::shared_ptr<const serve::Catalog> catalog = s.store->catalog();
  const serve::ServedArtifact& served = *catalog->find(0);
  const char* route_span = kind_span("model.route_batch_us", "tz");
  for (const std::size_t idx : sampled) {
    const std::vector<std::uint8_t> bytes = serve::encode_frame(pool[idx].frame);
    std::vector<std::uint8_t> served_bytes;
    {
      obs::TraceSpan span(trace, "serve.handle_request_us");
      served_bytes = s.server->handle_request(bytes);
    }
    serve::Frame request;
    {
      obs::TraceSpan span(trace, "serve.parse_frame_us");
      request = serve::parse_frame(bytes);
    }
    std::vector<serve::QueryPair> pairs;
    {
      obs::TraceSpan span(trace, "serve.decode_pairs_us");
      pairs = serve::decode_query_pairs(request);
    }
    std::vector<model::RoutePair> batch(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      batch[i] = {pairs[i].src, served.compiled.scheme->label_of(pairs[i].dst)};
    }
    std::vector<graph::NodeId> hops(pairs.size());
    {
      obs::TraceSpan span(trace, route_span);
      served.compiled.fast->route_batch(batch, hops);
    }
    serve::Frame reply;
    reply.opcode =
        static_cast<std::uint8_t>(request.opcode | serve::kResponseBit);
    reply.artifact_id = request.artifact_id;
    reply.pair_count = request.pair_count;
    for (const graph::NodeId hop : hops) serve::put_u32(reply.payload, hop);
    std::vector<std::uint8_t> encoded;
    {
      obs::TraceSpan span(trace, "serve.encode_frame_us");
      encoded = serve::encode_frame(reply);
    }
    ++gates.attempted;
    if (encoded != served_bytes) {
      gates.fail("replayed stages disagree with handle_request");
    }
  }
}

}  // namespace

RunData run_serve_bulk(const Context& ctx) {
  RunData data;
  const auto state = repeat_setup(ctx, data, [&] { return set_up(ctx); });
  const std::vector<Request> pool = make_requests(ctx.opt, *state->scheme);

  const auto& registry = obs::MetricsRegistry::global();
  constexpr const char* kCounters[] = {"serve.requests", "serve.pairs",
                                       "serve.bytes_in", "serve.bytes_out",
                                       "serve.errors"};
  std::vector<std::uint64_t> before;
  for (const char* name : kCounters) before.push_back(registry.counter_value(name));

  obs::Trace* trace = ctx.tracer.trace();
  std::uint64_t sent = 0;  // warm-up included
  std::vector<std::size_t> sampled;  // pool indices of traced requests
  measure_loop(ctx, data, [&](bool measured) {
    const std::size_t idx = sent % pool.size();
    const Request& req = pool[idx];
    const bool sample =
        measured && trace != nullptr && data.ops % kServeSampleEvery == 0;
    serve::Frame resp;
    const auto start = Clock::now();
    {
      std::optional<obs::TraceSpan> span;
      if (sample) span.emplace(trace, "serve.call_us");
      // A transport error leaves the connection unusable: it throws and
      // fails the run.
      resp = state->client->call(req.frame);
    }
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    ++sent;
    ++data.gates.attempted;
    if (const std::string why = check_response(resp, req); !why.empty()) {
      data.gates.fail(why);
    }
    if (!measured) return;
    ++data.ops;
    data.op_ms.push_back(ms);
    if (sample) sampled.push_back(idx);
  });
  data.traced_ops = sampled.size();

  // Registry counts cover warm-up too; scale them to the measured share so
  // the per-op ratio is exact.
  const double measured_share =
      static_cast<double>(data.ops) / static_cast<double>(sent);
  for (std::size_t i = 0; i < std::size(kCounters); ++i) {
    data.counts[kCounters[i]] =
        static_cast<double>(registry.counter_value(kCounters[i]) - before[i]) *
        measured_share;
  }

  if (trace != nullptr) {
    const auto replay_start = Clock::now();
    replay(ctx, *state, pool, sampled, data.gates);
    ctx.tracer.add_measure(replay_start, Clock::now());
  }
  state->server->stop();
  state->server_thread.join();
  if (!state->server_error.empty()) {
    data.gates.fail("server stopped: " + state->server_error);
  }

  data.info.push_back({"req_p99_us", quantile(data.op_ms, 0.99) * 1e3, "us"});
  data.info.push_back(
      {"pairs_per_s",
       static_cast<double>(data.ops * kPairs) / data.measured_s, "1/s"});
  return data;
}

}  // namespace optrt::bench
