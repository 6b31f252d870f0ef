#include "serve/client.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace optrt::serve {

namespace {

void read_exact_blocking(int fd, std::uint8_t* buf, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::recv(fd, buf + done, n - done, 0);
    if (r == 0) {
      throw std::runtime_error("connection closed mid-frame");
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("recv failed: ") +
                               std::strerror(errno));
    }
    done += static_cast<std::size_t>(r);
  }
}

/// Sends a frame's header and payload with one sendmsg of two iovecs,
/// resuming after a partial write.
void send_frame(int fd, std::span<const std::uint8_t> head,
                std::span<const std::uint8_t> payload) {
  const std::size_t total = head.size() + payload.size();
  std::size_t done = 0;
  while (done < total) {
    struct iovec iov[2];
    std::size_t count = 0;
    if (done < head.size()) {
      iov[count++] = {const_cast<std::uint8_t*>(head.data()) + done,
                      head.size() - done};
    }
    const std::size_t sent_payload = done > head.size() ? done - head.size() : 0;
    if (sent_payload < payload.size()) {
      iov[count++] = {const_cast<std::uint8_t*>(payload.data()) + sent_payload,
                      payload.size() - sent_payload};
    }
    struct msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send failed: ") +
                               std::strerror(errno));
    }
    done += static_cast<std::size_t>(r);
  }
}

}  // namespace

Client::Client(int fd) : fd_(fd) {}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

Client Client::connect_unix(const std::string& path) {
  struct sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("unix socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(AF_UNIX) failed");
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("cannot connect to " + path + ": " +
                             std::strerror(err));
  }
  return Client(fd);
}

Client Client::connect_tcp(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(AF_INET) failed");
  struct sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("bad TCP host: " + host);
  }
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("cannot connect to " + host + ":" +
                             std::to_string(port) + ": " + std::strerror(err));
  }
  return Client(fd);
}

Frame Client::call(const Frame& request) {
  std::array<std::uint8_t, kWireHeaderBytes> head;
  write_header(head.data(), request.opcode, request.artifact_id,
               request.pair_count, request.payload);
  send_frame(fd_, head, request.payload);

  read_exact_blocking(fd_, head.data(), head.size());
  const FrameHeader header = parse_header(head);
  Frame response;
  response.opcode = header.opcode;
  response.artifact_id = header.artifact_id;
  response.pair_count = header.pair_count;
  response.payload.resize(header.payload_len);
  read_exact_blocking(fd_, response.payload.data(), header.payload_len);
  (void)check_payload(header, response.payload);
  return response;
}

Frame Client::checked_call(const Frame& request) {
  Frame response = call(request);
  if (response.is_error()) {
    const ErrorInfo info = decode_error(response);
    throw ProtocolError(info.code, info.detail);
  }
  if (response.opcode !=
      static_cast<std::uint8_t>(request.opcode | kResponseBit)) {
    throw ProtocolError(WireError::kMalformed,
                        "response opcode does not match the request");
  }
  return response;
}

void Client::ping() { (void)checked_call(make_ping_request()); }

std::vector<graph::NodeId> Client::next_hops(std::uint32_t artifact_id,
                                             std::span<const QueryPair> pairs) {
  return decode_next_hops(
      checked_call(make_next_hop_request(artifact_id, pairs)));
}

std::vector<std::vector<graph::NodeId>> Client::routes(
    std::uint32_t artifact_id, std::span<const QueryPair> pairs) {
  return decode_routes(checked_call(make_route_request(artifact_id, pairs)));
}

std::vector<ArtifactSummary> Client::list() {
  return decode_artifact_list(checked_call(make_list_request()));
}

std::uint32_t Client::reload() {
  const Frame response = checked_call(make_reload_request());
  return get_u32(response.payload, 0);
}

}  // namespace optrt::serve
