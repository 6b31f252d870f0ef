// Blocking ORTP client: connects to an optrtd daemon over a Unix or TCP
// socket and exchanges one frame per call. Shared by `optrt_cli query`,
// the serving load generator (bench/bench_serving.cpp), and the serve
// test suites — every consumer speaks the protocol through the same
// codec the server does, so a framing bug cannot hide on one side.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace optrt::serve {

class Client {
 public:
  /// Wraps an already-connected stream socket (e.g. one end of a
  /// socketpair). Takes ownership of the descriptor.
  explicit Client(int fd);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connects to a Unix-domain listener. Throws std::runtime_error.
  [[nodiscard]] static Client connect_unix(const std::string& path);
  /// Connects to a TCP listener. Throws std::runtime_error.
  [[nodiscard]] static Client connect_tcp(const std::string& host, int port);

  /// Sends one request frame and reads one response frame. The header is
  /// written on the stack and goes out with the caller's payload in one
  /// sendmsg; the reply payload is read straight into the returned Frame
  /// and checksummed there. Throws std::runtime_error on transport
  /// failure, ProtocolError when the response bytes do not parse.
  [[nodiscard]] Frame call(const Frame& request);

  /// Typed helpers: send the request, decode the success response, and
  /// throw ProtocolError (carrying the server's code + detail) when the
  /// server answered with an error frame.
  void ping();
  [[nodiscard]] std::vector<graph::NodeId> next_hops(
      std::uint32_t artifact_id, std::span<const QueryPair> pairs);
  [[nodiscard]] std::vector<std::vector<graph::NodeId>> routes(
      std::uint32_t artifact_id, std::span<const QueryPair> pairs);
  [[nodiscard]] std::vector<ArtifactSummary> list();
  /// Returns the number of artifacts served after the reload.
  std::uint32_t reload();

  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  [[nodiscard]] Frame checked_call(const Frame& request);

  int fd_ = -1;
};

}  // namespace optrt::serve
