#include "serve/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
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

IoStatus read_exact(int fd, std::uint8_t* buf, std::size_t n,
                    const std::atomic<bool>& stop, Clock::time_point deadline,
                    int poll_interval_ms) {
  std::size_t done = 0;
  while (done < n) {
    const IoStatus ready =
        wait_ready(fd, POLLIN, stop, deadline, poll_interval_ms);
    if (ready != IoStatus::kOk) return ready;
    const ssize_t r = ::recv(fd, buf + done, n - done, 0);
    if (r == 0) return IoStatus::kEof;
    if (r < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return IoStatus::kError;
    }
    done += static_cast<std::size_t>(r);
  }
  return IoStatus::kOk;
}

IoStatus write_all(int fd, const std::uint8_t* buf, std::size_t n,
                   const std::atomic<bool>& stop, Clock::time_point deadline,
                   int poll_interval_ms) {
  std::size_t done = 0;
  while (done < n) {
    const IoStatus ready =
        wait_ready(fd, POLLOUT, stop, deadline, poll_interval_ms);
    if (ready != IoStatus::kOk) return ready;
    const ssize_t r = ::send(fd, buf + done, n - done, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return IoStatus::kError;
    }
    done += static_cast<std::size_t>(r);
  }
  return IoStatus::kOk;
}

}  // namespace

std::string format_load_failure(const LoadFailure& failure) {
  return "error: " + failure.path + ": " + failure.message;
}

std::vector<std::uint64_t> latency_buckets() {
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t b = 256; b <= (std::uint64_t{1} << 32); b *= 4) {
    bounds.push_back(b);
  }
  return bounds;
}

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
  std::vector<std::uint8_t> buffer;
  while (!stopped()) {
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(config_.idle_timeout_ms);
    buffer.resize(kWireHeaderBytes);
    const IoStatus head = read_exact(fd, buffer.data(), kWireHeaderBytes,
                                     stop_, deadline, config_.poll_interval_ms);
    if (head != IoStatus::kOk) return;  // clean EOF, timeout, stop, or error
    std::size_t payload_len = 0;
    Frame header;
    try {
      payload_len = parse_header(buffer, header);
    } catch (const ProtocolError& e) {
      // The stream cannot be resynchronized after a bad header: answer
      // with the typed error and drop the connection.
      obs::counter("serve.errors").inc();
      obs::counter(std::string("serve.errors.") + to_string(e.code())).inc();
      const auto out =
          encode_frame(make_error_response(0, e.code(), e.what()));
      (void)write_all(fd, out.data(), out.size(), stop_, deadline,
                      config_.poll_interval_ms);
      return;
    }
    buffer.resize(kWireHeaderBytes + payload_len);
    const IoStatus body =
        read_exact(fd, buffer.data() + kWireHeaderBytes, payload_len, stop_,
                   deadline, config_.poll_interval_ms);
    if (body != IoStatus::kOk) {
      // The peer declared a payload it never sent.
      obs::counter("serve.errors").inc();
      obs::counter("serve.errors.truncated").inc();
      const auto out = encode_frame(make_error_response(
          header.artifact_id, WireError::kTruncated,
          "connection ended inside the declared payload"));
      (void)write_all(fd, out.data(), out.size(), stop_, deadline,
                      config_.poll_interval_ms);
      return;
    }
    bytes_in.inc(buffer.size());

    const auto start = Clock::now();
    const std::vector<std::uint8_t> response = handle_request(buffer);
    latency.observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count()));
    bytes_out.inc(response.size());
    if (write_all(fd, response.data(), response.size(), stop_, deadline,
                  config_.poll_interval_ms) != IoStatus::kOk) {
      return;
    }
    // A response frame that reported an unsynchronizable stream error
    // (bad magic etc.) is followed by a close on our side too.
    if (response.size() > 5 && response[5] == kErrorOpcode &&
        response.size() > kWireHeaderBytes) {
      const auto code = static_cast<WireError>(response[kWireHeaderBytes]);
      if (code == WireError::kBadMagic || code == WireError::kVersionMismatch ||
          code == WireError::kTruncated) {
        return;
      }
    }
  }
}

std::vector<std::uint8_t> Server::handle_request(
    std::span<const std::uint8_t> frame_bytes) {
  obs::counter("serve.requests").inc();
  std::uint32_t echo_id = 0;
  try {
    {
      // Salvage the artifact id for the error echo when at least the
      // header parses.
      Frame header;
      try {
        (void)parse_header(frame_bytes, header);
        echo_id = header.artifact_id;
      } catch (const ProtocolError&) {
      }
    }
    const Frame request = parse_frame(frame_bytes);
    return encode_frame(dispatch(request));
  } catch (const ProtocolError& e) {
    obs::counter("serve.errors").inc();
    obs::counter(std::string("serve.errors.") + to_string(e.code())).inc();
    return encode_frame(make_error_response(echo_id, e.code(), e.what()));
  } catch (const std::exception& e) {
    obs::counter("serve.errors").inc();
    obs::counter("serve.errors.internal").inc();
    return encode_frame(
        make_error_response(echo_id, WireError::kInternal, e.what()));
  }
}

Frame Server::dispatch(const Frame& request) {
  if (request.is_response() || request.is_error()) {
    throw ProtocolError(WireError::kBadOpcode,
                        "response opcode in request position");
  }
  const auto op = static_cast<Opcode>(request.opcode);
  obs::counter(std::string("serve.requests.") + to_string(op)).inc();

  Frame reply;
  reply.opcode = static_cast<std::uint8_t>(request.opcode | kResponseBit);
  reply.artifact_id = request.artifact_id;

  switch (op) {
    case Opcode::kPing:
      return reply;

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
      const std::vector<QueryPair> pairs = decode_query_pairs(request);
      const auto n = static_cast<graph::NodeId>(artifact->node_count());
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        if (pairs[i].src >= n || pairs[i].dst >= n ||
            pairs[i].src == pairs[i].dst) {
          throw ProtocolError(WireError::kBadPair,
                              "pair " + std::to_string(i) +
                                  " out of range or equal");
        }
      }
      const model::RoutingScheme& scheme = *artifact->compiled.scheme;
      reply.pair_count = request.pair_count;
      obs::counter("serve.pairs").inc(pairs.size());

      if (op == Opcode::kNextHop) {
        // Per-connection batching: the whole wire batch goes through one
        // route_batch call on the compiled fast path.
        std::vector<model::RoutePair> batch(pairs.size());
        for (std::size_t i = 0; i < pairs.size(); ++i) {
          batch[i] = {pairs[i].src, scheme.label_of(pairs[i].dst)};
        }
        std::vector<graph::NodeId> hops(pairs.size());
        artifact->compiled.fast->route_batch(batch, hops);
        put_u32s(reply.payload, hops);
        return reply;
      }

      // kRoute: the honest hop-by-hop walk (persistent header, exactly
      // the CLI `route` semantics), one path per pair.
      const std::size_t budget = model::default_hop_budget(scheme.node_count());
      for (const QueryPair& pair : pairs) {
        std::vector<graph::NodeId> path;
        model::MessageHeader header;
        graph::NodeId at = pair.src;
        const graph::NodeId dest_label = scheme.label_of(pair.dst);
        while (at != pair.dst) {
          if (path.size() >= budget) {
            throw ProtocolError(WireError::kInternal,
                                "route exceeded the hop budget");
          }
          const graph::NodeId next = scheme.next_hop(at, dest_label, header);
          header.came_from = at;
          at = next;
          path.push_back(at);
        }
        put_u32(reply.payload, static_cast<std::uint32_t>(path.size()));
        put_u32s(reply.payload, path);
      }
      return reply;
    }

    case Opcode::kList: {
      const std::shared_ptr<const Catalog> catalog = store_.catalog();
      reply.pair_count =
          static_cast<std::uint32_t>(catalog->artifacts.size());
      for (const auto& artifact : catalog->artifacts) {
        put_u32(reply.payload, artifact->id);
        put_u32(reply.payload,
                static_cast<std::uint32_t>(artifact->node_count()));
        reply.payload.push_back(static_cast<std::uint8_t>(artifact->kind));
        const std::size_t name_len = std::min<std::size_t>(
            artifact->name.size(), 255);
        reply.payload.push_back(static_cast<std::uint8_t>(name_len));
        reply.payload.insert(
            reply.payload.end(), artifact->name.begin(),
            artifact->name.begin() + static_cast<std::ptrdiff_t>(name_len));
      }
      return reply;
    }

    case Opcode::kReload: {
      const LoadReport report = store_.load();
      if (!report.ok()) {
        throw ProtocolError(WireError::kInternal,
                            format_load_failure(report.failures.front()));
      }
      put_u32(reply.payload, static_cast<std::uint32_t>(report.loaded));
      return reply;
    }
  }
  throw ProtocolError(WireError::kBadOpcode, "unhandled opcode");
}

}  // namespace optrt::serve
