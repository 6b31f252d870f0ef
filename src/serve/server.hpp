// optrtd's serving core: listeners, the multi-threaded accept loop, and
// the ORTP request dispatcher.
//
// Threading model: Server::run() occupies a core::ThreadPool (the same
// deterministic pool the experiment engine uses) with one long-running
// index per thread — index 0 polls the listeners and accepts, every
// other index drains a blocking queue of connected sockets and serves
// them to completion. A connection is served by exactly one thread at a
// time, so request handling needs no per-connection locking; shared
// state is the artifact store's copy-and-swap catalog plus the sharded
// obs metrics registry, both designed for concurrent use (the tsan CI
// stage holds the accept + hot-reload path to that).
//
// Per-connection batching: a kNextHop request carries up to
// kMaxPairsPerRequest pairs and is answered by a single
// FastPath::route_batch call — the wire batch IS the lookup batch, so a
// serving thread amortizes dispatch exactly like the bench_lookup hot
// loop does.
//
// One pass per request: a connection reads the header into its own
// buffer and parses it once, reads the payload behind it and checksums
// it there, then decodes, range-checks and labels the pairs straight
// into its RoutePair buffer, routes into its hop buffer, and writes the
// reply payload and then its header and CRC into its response buffer.
// The buffers and the counter handles live as long as the connection, so
// a steady request stream allocates nothing. Every opcode and every
// error takes this one path; handle_request runs it too, with buffers of
// its own.
//
// Shutdown and robustness: every blocking socket operation polls with a
// short timeout and rechecks the stop flag, so stop() (or a daemon
// signal) wins within one poll interval — a half-sent frame from a
// stalled or hostile client can slow only its own connection, never the
// accept loop, and never past idle_timeout_ms.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/store.hpp"

namespace optrt::serve {

struct ServerConfig {
  /// Unix-domain listener path (empty = no Unix listener).
  std::string unix_path;
  /// TCP listener (-1 = no TCP listener, 0 = kernel-chosen port).
  int tcp_port = -1;
  std::string tcp_host = "127.0.0.1";
  /// Serving threads including the acceptor (0 = core::default_threads(),
  /// clamped to at least 2 so one worker always backs the acceptor).
  std::size_t threads = 0;
  /// Granularity of stop-flag checks inside blocking socket waits.
  int poll_interval_ms = 50;
  /// A connection idle (or stalled mid-frame) this long is closed.
  int idle_timeout_ms = 30000;
};

class Server {
 public:
  Server(ArtifactStore& store, ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Creates and binds the configured listeners. Throws std::runtime_error
  /// on bind failure. Call once, before run().
  void bind();

  /// Resolved TCP port after bind() (useful with tcp_port = 0); -1 when
  /// no TCP listener was configured.
  [[nodiscard]] int tcp_port() const noexcept { return bound_tcp_port_; }

  /// Serves until stop(): occupies the calling thread (acceptor) plus
  /// config.threads - 1 pool workers.
  void run();

  /// Signals run() to wind down; safe from any thread or a poll_hook.
  void stop();

  [[nodiscard]] bool stopped() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

  /// Hands an already-connected stream socket to the worker queue — how
  /// the in-process tests drive the server over socketpairs. The server
  /// takes ownership of the descriptor.
  void adopt_connection(int fd);

  /// Answers one request frame through the same one-pass path a
  /// connection runs, with buffers that live for this call only. Never
  /// throws — every failure (parse, unknown artifact, bad pair, internal)
  /// becomes an encoded error-response frame.
  [[nodiscard]] std::vector<std::uint8_t> handle_request(
      std::span<const std::uint8_t> frame_bytes);

  /// Invoked by the accept loop about once per poll interval (between
  /// accepts). The daemon routes signal-triggered hot reloads through
  /// this so reload runs on a serving thread, not in a signal handler.
  std::function<void()> poll_hook;

 private:
  struct Connection;

  void accept_loop();
  void worker_loop();
  void serve_connection(int fd);
  /// The one request path: checks the payload of `frame` (whose header
  /// was parsed into `header`) in place, answers it and leaves the
  /// response frame, or a typed error frame, in the connection's `out`.
  void respond(Connection& c, const FrameHeader& header,
               std::span<const std::uint8_t> frame);
  /// Dispatches a checked request by opcode, writing the reply payload and
  /// then its header into `out`. Throws ProtocolError on a request-level
  /// failure.
  void answer(Connection& c, const FrameHeader& request,
              std::span<const std::uint8_t> payload);

  ArtifactStore& store_;
  ServerConfig config_;
  std::vector<int> listen_fds_;
  int bound_tcp_port_ = -1;
  std::string bound_unix_path_;

  std::atomic<bool> stop_{false};
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  ///< accepted fds awaiting a worker
};

/// Formats a LoadReport failure exactly like optrt_cli's reject_file
/// diagnostic ("error: <path>: <what>") — the parity the end-to-end
/// shell test pins between optrtd and verify-artifact.
[[nodiscard]] std::string format_load_failure(const LoadFailure& failure);

/// Bucket bounds for the serve.request_ns latency histogram: log-linear,
/// 32 equal-width buckets per octave from 256 ns to 2^32 ns (~4.3 s), so
/// each bucket spans at most 1/32 (3.125 %) of its lower bound and a p99
/// and a p999 a few percent apart read differently.
[[nodiscard]] std::vector<std::uint64_t> latency_buckets();

}  // namespace optrt::serve
