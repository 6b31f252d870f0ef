#include "serve/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/parallel.hpp"
#include "model/scheme.hpp"
#include "model/verifier.hpp"
#include "obs/metrics.hpp"

namespace optrt::serve {

namespace {

using Clock = std::chrono::steady_clock;

enum class IoStatus { kOk, kEof, kTimeout, kStopped, kError };

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Waits for `events` on `fd` in poll_interval slices, honouring the stop
/// flag and an overall deadline.
IoStatus wait_ready(int fd, short events, const std::atomic<bool>& stop,
                    Clock::time_point deadline, int poll_interval_ms) {
  while (true) {
    if (stop.load(std::memory_order_relaxed)) return IoStatus::kStopped;
    if (Clock::now() >= deadline) return IoStatus::kTimeout;
    struct pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, poll_interval_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return IoStatus::kError;
    }
    if (rc > 0) {
      if ((pfd.revents & (events | POLLHUP | POLLERR)) != 0) return IoStatus::kOk;
    }
  }
}

/// Reads exactly `n` bytes. Each read is tried first and the socket
/// polled only when it would block, so bytes already queued cost one
/// syscall.
IoStatus read_exact(int fd, std::uint8_t* buf, std::size_t n,
                    const std::atomic<bool>& stop, Clock::time_point deadline,
                    int poll_interval_ms) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::recv(fd, buf + done, n - done, 0);
    if (r > 0) {
      done += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) return IoStatus::kEof;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return IoStatus::kError;
    const IoStatus ready =
        wait_ready(fd, POLLIN, stop, deadline, poll_interval_ms);
    if (ready != IoStatus::kOk) return ready;
  }
  return IoStatus::kOk;
}

/// Writes all `n` bytes, trying each send before polling like read_exact.
IoStatus write_all(int fd, const std::uint8_t* buf, std::size_t n,
                   const std::atomic<bool>& stop, Clock::time_point deadline,
                   int poll_interval_ms) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::send(fd, buf + done, n - done, MSG_NOSIGNAL);
    if (r >= 0) {
      done += static_cast<std::size_t>(r);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return IoStatus::kError;
    const IoStatus ready =
        wait_ready(fd, POLLOUT, stop, deadline, poll_interval_ms);
    if (ready != IoStatus::kOk) return ready;
  }
  return IoStatus::kOk;
}

/// Slots of the counters a connection resolves once: the fixed ones,
/// then serve.requests.<op> by opcode, then serve.errors.<code> by code.
enum CounterSlot : std::size_t {
  kRequestsSlot,
  kPairsSlot,
  kErrorsSlot,
  kOpSlots,                                 // + opcode (1..kMaxOpcode)
  kErrorSlots = kOpSlots + kMaxOpcode + 1,  // + code (1..kMaxWireError)
  kCounterSlots = kErrorSlots + kMaxWireError + 1,
};

std::string counter_name(std::size_t slot) {
  if (slot == kRequestsSlot) return "serve.requests";
  if (slot == kPairsSlot) return "serve.pairs";
  if (slot == kErrorsSlot) return "serve.errors";
  if (slot < kErrorSlots) {
    return std::string("serve.requests.") +
           to_string(static_cast<Opcode>(slot - kOpSlots));
  }
  return std::string("serve.errors.") +
         to_string(static_cast<WireError>(slot - kErrorSlots));
}

}  // namespace

std::string format_load_failure(const LoadFailure& failure) {
  return "error: " + failure.path + ": " + failure.message;
}

std::vector<std::uint64_t> latency_buckets() {
  // Log-linear: each octave [2^k, 2^(k+1)) from 2^8 to 2^32 splits into
  // kSteps equal widths, then 2^32 closes the last one.
  constexpr unsigned kSteps = 32;
  std::vector<std::uint64_t> bounds;
  bounds.reserve((32 - 8) * kSteps + 1);
  for (unsigned k = 8; k < 32; ++k) {
    const std::uint64_t base = std::uint64_t{1} << k;
    for (unsigned i = 0; i < kSteps; ++i) {
      bounds.push_back(base + base / kSteps * i);
    }
  }
  bounds.push_back(std::uint64_t{1} << 32);
  return bounds;
}

/// What one connection keeps between requests: the request frame, the
/// labelled pairs, the hops and the response frame, each reused request
/// after request so a steady stream allocates nothing, plus counter
/// handles resolved on first use, so the registry holds the same names a
/// lookup per request would register. The buffers grow to the largest
/// request seen, at most kMaxPayloadBytes of payload plus a header each,
/// and are freed with the connection.
struct Server::Connection {
  std::vector<std::uint8_t> in;
  std::vector<model::RoutePair> batch;
  std::vector<graph::NodeId> hops;
  std::vector<std::uint8_t> out;
  std::array<std::optional<obs::Counter>, kCounterSlots> counters;

  void count(std::size_t slot, std::uint64_t delta = 1) {
    std::optional<obs::Counter>& counter = counters[slot];
    if (!counter) counter = obs::counter(counter_name(slot));
    counter->inc(delta);
  }

  /// Replaces `out` with an error response and counts it.
  void write_error(std::uint32_t artifact_id, WireError code,
                   std::string_view detail) {
    count(kErrorsSlot);
    count(kErrorSlots + static_cast<std::size_t>(code));
    out.resize(kWireHeaderBytes);
    put_error(out, code, detail);
    write_header(out.data(), kErrorOpcode, artifact_id, 0,
                 std::span(out).subspan(kWireHeaderBytes));
  }
};

Server::Server(ArtifactStore& store, ServerConfig config)
    : store_(store), config_(std::move(config)) {
  if (config_.threads == 0) config_.threads = core::default_threads();
  if (config_.threads < 2) config_.threads = 2;
}

Server::~Server() {
  stop();
  for (const int fd : listen_fds_) ::close(fd);
  std::lock_guard<std::mutex> lock(queue_mu_);
  for (const int fd : pending_) ::close(fd);
  if (!bound_unix_path_.empty()) ::unlink(bound_unix_path_.c_str());
}

void Server::bind() {
  if (!config_.unix_path.empty()) {
    struct sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.unix_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("unix socket path too long: " +
                               config_.unix_path);
    }
    std::strncpy(addr.sun_path, config_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket(AF_UNIX) failed");
    ::unlink(config_.unix_path.c_str());  // stale socket from a prior run
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(fd, 128) != 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("cannot listen on " + config_.unix_path + ": " +
                               std::strerror(err));
    }
    set_nonblocking(fd);
    listen_fds_.push_back(fd);
    bound_unix_path_ = config_.unix_path;
  }
  if (config_.tcp_port >= 0) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket(AF_INET) failed");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.tcp_port));
    if (::inet_pton(AF_INET, config_.tcp_host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd);
      throw std::runtime_error("bad TCP host: " + config_.tcp_host);
    }
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(fd, 128) != 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("cannot listen on " + config_.tcp_host + ":" +
                               std::to_string(config_.tcp_port) + ": " +
                               std::strerror(err));
    }
    struct sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound), &len) ==
        0) {
      bound_tcp_port_ = ntohs(bound.sin_port);
    }
    set_nonblocking(fd);
    listen_fds_.push_back(fd);
  }
}

void Server::stop() {
  stop_.store(true, std::memory_order_relaxed);
  queue_cv_.notify_all();
}

void Server::adopt_connection(int fd) {
  obs::counter("serve.connections").inc();
  set_nonblocking(fd);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    pending_.push_back(fd);
  }
  queue_cv_.notify_one();
}

void Server::run() {
  core::ThreadPool pool(config_.threads);
  const std::size_t lanes = pool.thread_count();
  pool.parallel_for(lanes, [this](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (stopped()) return;  // a lane claimed after shutdown does nothing
      if (i == 0) {
        accept_loop();
      } else {
        worker_loop();
      }
    }
  });
}

void Server::accept_loop() {
  while (!stopped()) {
    std::vector<struct pollfd> pfds;
    pfds.reserve(listen_fds_.size());
    for (const int fd : listen_fds_) pfds.push_back({fd, POLLIN, 0});
    const int rc = ::poll(pfds.empty() ? nullptr : pfds.data(),
                          static_cast<nfds_t>(pfds.size()),
                          config_.poll_interval_ms);
    if (rc < 0 && errno != EINTR) break;
    for (const struct pollfd& pfd : pfds) {
      if ((pfd.revents & POLLIN) == 0) continue;
      while (true) {
        const int conn = ::accept(pfd.fd, nullptr, nullptr);
        if (conn < 0) break;  // EAGAIN: drained this listener
        adopt_connection(conn);
      }
    }
    if (poll_hook) poll_hook();
  }
}

void Server::worker_loop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return stopped() || !pending_.empty(); });
      if (pending_.empty()) return;  // stop with nothing left to serve
      fd = pending_.front();
      pending_.pop_front();
    }
    serve_connection(fd);
    ::close(fd);
    obs::counter("serve.connections_closed").inc();
  }
}

void Server::serve_connection(int fd) {
  const obs::Counter bytes_in = obs::counter("serve.bytes_in");
  const obs::Counter bytes_out = obs::counter("serve.bytes_out");
  const obs::Histogram latency =
      obs::histogram("serve.request_ns", latency_buckets());
  Connection c;
  while (!stopped()) {
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(config_.idle_timeout_ms);
    const auto send_out = [&] {
      return write_all(fd, c.out.data(), c.out.size(), stop_, deadline,
                       config_.poll_interval_ms);
    };
    // Idle between requests: wait for the next one before reading it.
    if (c.in.size() < kWireHeaderBytes) c.in.resize(kWireHeaderBytes);
    if (wait_ready(fd, POLLIN, stop_, deadline, config_.poll_interval_ms) !=
            IoStatus::kOk ||
        read_exact(fd, c.in.data(), kWireHeaderBytes, stop_, deadline,
                   config_.poll_interval_ms) != IoStatus::kOk) {
      return;  // clean EOF, timeout, stop, or error
    }
    FrameHeader header;
    try {
      header = parse_header(c.in);
    } catch (const ProtocolError& e) {
      // The stream cannot be resynchronized after a bad header: answer
      // with the typed error and drop the connection.
      c.write_error(0, e.code(), e.what());
      (void)send_out();
      return;
    }
    // `in` only grows, so a request no larger than an earlier one reuses
    // its bytes without clearing them first.
    const std::size_t frame_len = kWireHeaderBytes + header.payload_len;
    if (c.in.size() < frame_len) c.in.resize(frame_len);
    if (read_exact(fd, c.in.data() + kWireHeaderBytes, header.payload_len,
                   stop_, deadline,
                   config_.poll_interval_ms) != IoStatus::kOk) {
      // The peer declared a payload it never sent.
      c.write_error(header.artifact_id, WireError::kTruncated,
                    "connection ended inside the declared payload");
      (void)send_out();
      return;
    }
    bytes_in.inc(frame_len);

    const auto start = Clock::now();
    respond(c, header, std::span(c.in).first(frame_len));
    latency.observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count()));
    bytes_out.inc(c.out.size());
    if (send_out() != IoStatus::kOk) return;
  }
}

std::vector<std::uint8_t> Server::handle_request(
    std::span<const std::uint8_t> frame_bytes) {
  Connection c;
  FrameHeader header;
  try {
    header = parse_header(frame_bytes);
  } catch (const ProtocolError& e) {
    // No header, so no artifact id to echo.
    c.count(kRequestsSlot);
    c.write_error(0, e.code(), e.what());
    return std::move(c.out);
  }
  respond(c, header, frame_bytes);
  return std::move(c.out);
}

void Server::respond(Connection& c, const FrameHeader& header,
                     std::span<const std::uint8_t> frame) {
  c.count(kRequestsSlot);
  try {
    answer(c, header, check_payload(header, frame.subspan(kWireHeaderBytes)));
  } catch (const ProtocolError& e) {
    c.write_error(header.artifact_id, e.code(), e.what());
  } catch (const std::exception& e) {
    c.write_error(header.artifact_id, WireError::kInternal, e.what());
  }
}

void Server::answer(Connection& c, const FrameHeader& request,
                    std::span<const std::uint8_t> payload) {
  if (is_response_opcode(request.opcode) || is_error_opcode(request.opcode)) {
    throw ProtocolError(WireError::kBadOpcode,
                        "response opcode in request position");
  }
  const auto op = static_cast<Opcode>(request.opcode);
  c.count(kOpSlots + request.opcode);

  // The reply payload goes straight after room for its header.
  std::vector<std::uint8_t>& out = c.out;
  out.resize(kWireHeaderBytes);
  std::uint32_t pair_count = 0;

  switch (op) {
    case Opcode::kPing:
      break;

    case Opcode::kNextHop:
    case Opcode::kRoute: {
      // The catalog snapshot is pinned for the whole request: a reload
      // swapping underneath cannot invalidate this batch.
      const std::shared_ptr<const Catalog> catalog = store_.catalog();
      const ServedArtifact* artifact = catalog->find(request.artifact_id);
      if (artifact == nullptr) {
        throw ProtocolError(WireError::kUnknownArtifact,
                            "artifact id " +
                                std::to_string(request.artifact_id) +
                                " is not served");
      }
      const model::RoutingScheme& scheme = *artifact->compiled.scheme;
      const auto n = static_cast<graph::NodeId>(artifact->node_count());
      // One pass over the payload checks every pair and, for kNextHop,
      // labels it into the batch route_batch reads.
      const bool next_hop = op == Opcode::kNextHop;
      c.batch.resize(next_hop ? request.pair_count : 0);
      visit_query_pairs(
          request.pair_count, payload, [&](std::uint32_t i, QueryPair pair) {
            if (pair.src >= n || pair.dst >= n || pair.src == pair.dst) {
              throw ProtocolError(WireError::kBadPair,
                                  "pair " + std::to_string(i) +
                                      " out of range or equal");
            }
            if (next_hop) c.batch[i] = {pair.src, artifact->labels[pair.dst]};
          });
      pair_count = request.pair_count;
      c.count(kPairsSlot, request.pair_count);

      if (next_hop) {
        // Per-connection batching: the whole wire batch goes through one
        // route_batch call on the compiled fast path.
        c.hops.resize(request.pair_count);
        artifact->compiled.fast->route_batch(c.batch, c.hops);
        put_u32s(out, c.hops);
        break;
      }

      // kRoute: the honest hop-by-hop walk (persistent header, exactly
      // the CLI `route` semantics), one length-prefixed path per pair.
      const std::size_t budget = model::default_hop_budget(scheme.node_count());
      visit_query_pairs(
          request.pair_count, payload, [&](std::uint32_t, QueryPair pair) {
            const std::size_t length_at = out.size();
            put_u32(out, 0);  // the path length, written once known
            std::uint32_t length = 0;
            model::MessageHeader header;
            graph::NodeId at = pair.src;
            const graph::NodeId dest_label = artifact->labels[pair.dst];
            while (at != pair.dst) {
              if (length >= budget) {
                throw ProtocolError(WireError::kInternal,
                                    "route exceeded the hop budget");
              }
              const graph::NodeId next =
                  scheme.next_hop(at, dest_label, header);
              header.came_from = at;
              at = next;
              put_u32(out, at);
              ++length;
            }
            detail::store_u32(out.data() + length_at, length);
            if (out.size() - kWireHeaderBytes > kMaxPayloadBytes) {
              throw ProtocolError(WireError::kResourceLimit,
                                  "route response exceeds kMaxPayloadBytes");
            }
          });
      break;
    }

    case Opcode::kList: {
      const std::shared_ptr<const Catalog> catalog = store_.catalog();
      pair_count = static_cast<std::uint32_t>(catalog->artifacts.size());
      for (const auto& artifact : catalog->artifacts) {
        put_u32(out, artifact->id);
        put_u32(out, static_cast<std::uint32_t>(artifact->node_count()));
        out.push_back(static_cast<std::uint8_t>(artifact->kind));
        const std::size_t name_len =
            std::min<std::size_t>(artifact->name.size(), 255);
        out.push_back(static_cast<std::uint8_t>(name_len));
        out.insert(out.end(), artifact->name.begin(),
                   artifact->name.begin() +
                       static_cast<std::ptrdiff_t>(name_len));
      }
      break;
    }

    case Opcode::kReload: {
      const LoadReport report = store_.load();
      if (!report.ok()) {
        throw ProtocolError(WireError::kInternal,
                            format_load_failure(report.failures.front()));
      }
      put_u32(out, static_cast<std::uint32_t>(report.loaded));
      break;
    }
  }
  write_header(out.data(), static_cast<std::uint8_t>(request.opcode | kResponseBit),
               request.artifact_id, pair_count,
               std::span(out).subspan(kWireHeaderBytes));
}

}  // namespace optrt::serve
