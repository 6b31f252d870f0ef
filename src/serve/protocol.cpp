#include "serve/protocol.hpp"

#include <algorithm>

#include "bitio/crc32.hpp"

namespace optrt::serve {

namespace {

void check(bool ok, WireError code, const char* what) {
  if (!ok) throw ProtocolError(code, what);
}

using detail::load_u32;
using detail::store_u32;

std::uint16_t get_u16(std::span<const std::uint8_t> bytes, std::size_t offset) {
  return static_cast<std::uint16_t>(bytes[offset] |
                                    (std::uint16_t{bytes[offset + 1]} << 8));
}

bool known_request_opcode(std::uint8_t op) noexcept {
  switch (static_cast<Opcode>(op)) {
    case Opcode::kPing:
    case Opcode::kNextHop:
    case Opcode::kRoute:
    case Opcode::kList:
    case Opcode::kReload:
      return true;
  }
  return false;
}

bool known_opcode(std::uint8_t op) noexcept {
  if (is_error_opcode(op)) return true;
  return known_request_opcode(op & static_cast<std::uint8_t>(~kResponseBit));
}

Frame make_pair_request(Opcode op, std::uint32_t artifact_id,
                        std::span<const QueryPair> pairs) {
  Frame f;
  f.opcode = static_cast<std::uint8_t>(op);
  f.artifact_id = artifact_id;
  f.pair_count = static_cast<std::uint32_t>(pairs.size());
  f.payload.resize(pairs.size() * 8);
  std::uint8_t* at = f.payload.data();
  for (const QueryPair& p : pairs) {
    at = store_u32(at, p.src);
    at = store_u32(at, p.dst);
  }
  return f;
}

}  // namespace

const char* to_string(Opcode op) noexcept {
  switch (op) {
    case Opcode::kPing: return "ping";
    case Opcode::kNextHop: return "next_hop";
    case Opcode::kRoute: return "route";
    case Opcode::kList: return "list";
    case Opcode::kReload: return "reload";
  }
  return "unknown";
}

const char* to_string(WireError code) noexcept {
  switch (code) {
    case WireError::kBadMagic: return "bad-magic";
    case WireError::kVersionMismatch: return "version-mismatch";
    case WireError::kBadOpcode: return "bad-opcode";
    case WireError::kTruncated: return "truncated";
    case WireError::kChecksumMismatch: return "checksum-mismatch";
    case WireError::kResourceLimit: return "resource-limit";
    case WireError::kMalformed: return "malformed";
    case WireError::kUnknownArtifact: return "unknown-artifact";
    case WireError::kBadPair: return "bad-pair";
    case WireError::kInternal: return "internal";
  }
  return "unknown";
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_u32s(out, std::span<const std::uint32_t>(&v, 1));
}

void put_u32s(std::vector<std::uint8_t>& out,
              std::span<const std::uint32_t> values) {
  const std::size_t start = out.size();
  out.resize(start + values.size() * 4);
  std::uint8_t* at = out.data() + start;
  for (const std::uint32_t v : values) at = store_u32(at, v);
}

std::uint32_t get_u32(std::span<const std::uint8_t> bytes, std::size_t offset) {
  return load_u32(bytes.subspan(offset, 4).data());
}

void write_header(std::uint8_t* out, std::uint8_t opcode,
                  std::uint32_t artifact_id, std::uint32_t pair_count,
                  std::span<const std::uint8_t> payload) {
  out = store_u32(out, kWireMagic);
  *out++ = kWireVersion;
  *out++ = opcode;
  *out++ = 0;  // reserved
  *out++ = 0;
  out = store_u32(out, artifact_id);
  out = store_u32(out, pair_count);
  out = store_u32(out, static_cast<std::uint32_t>(payload.size()));
  (void)store_u32(out, payload.empty()
                           ? 0
                           : bitio::crc32(payload.data(), payload.size()));
}

FrameHeader parse_header(std::span<const std::uint8_t> bytes) {
  check(bytes.size() >= kWireHeaderBytes, WireError::kTruncated,
        "frame shorter than the 24-byte header");
  check(get_u32(bytes, 0) == kWireMagic, WireError::kBadMagic,
        "leading magic is not ORTP");
  check(bytes[4] == kWireVersion, WireError::kVersionMismatch,
        "unknown protocol version");
  FrameHeader header;
  header.opcode = bytes[5];
  check(known_opcode(header.opcode), WireError::kBadOpcode,
        "opcode outside the ORTP menu");
  check(get_u16(bytes, 6) == 0, WireError::kMalformed,
        "reserved header bytes must be zero");
  header.artifact_id = get_u32(bytes, 8);
  header.pair_count = get_u32(bytes, 12);
  header.payload_len = get_u32(bytes, 16);
  header.crc = get_u32(bytes, 20);
  // Bound the declared sizes before any caller allocates for them.
  check(header.payload_len <= kMaxPayloadBytes, WireError::kResourceLimit,
        "declared payload exceeds kMaxPayloadBytes");
  check(header.pair_count <= kMaxPairsPerRequest, WireError::kResourceLimit,
        "declared pair count exceeds kMaxPairsPerRequest");
  return header;
}

std::span<const std::uint8_t> check_payload(
    const FrameHeader& header, std::span<const std::uint8_t> after_header) {
  check(after_header.size() >= header.payload_len, WireError::kTruncated,
        "buffer ends inside the declared payload");
  const auto payload = after_header.first(header.payload_len);
  const std::uint32_t crc_computed =
      payload.empty() ? 0 : bitio::crc32(payload.data(), payload.size());
  check(crc_computed == header.crc, WireError::kChecksumMismatch,
        "payload CRC32 disagrees with the header");
  return payload;
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::vector<std::uint8_t> out(kWireHeaderBytes + frame.payload.size());
  std::copy(frame.payload.begin(), frame.payload.end(),
            out.begin() + kWireHeaderBytes);
  write_header(out.data(), frame.opcode, frame.artifact_id, frame.pair_count,
               frame.payload);
  return out;
}

Frame parse_frame(std::span<const std::uint8_t> bytes, std::size_t* consumed) {
  const FrameHeader header = parse_header(bytes);
  const auto payload = check_payload(header, bytes.subspan(kWireHeaderBytes));
  Frame frame;
  frame.opcode = header.opcode;
  frame.artifact_id = header.artifact_id;
  frame.pair_count = header.pair_count;
  frame.payload.assign(payload.begin(), payload.end());
  if (consumed != nullptr) *consumed = kWireHeaderBytes + payload.size();
  return frame;
}

Frame make_ping_request() {
  Frame f;
  f.opcode = static_cast<std::uint8_t>(Opcode::kPing);
  return f;
}

Frame make_next_hop_request(std::uint32_t artifact_id,
                            std::span<const QueryPair> pairs) {
  return make_pair_request(Opcode::kNextHop, artifact_id, pairs);
}

Frame make_route_request(std::uint32_t artifact_id,
                         std::span<const QueryPair> pairs) {
  return make_pair_request(Opcode::kRoute, artifact_id, pairs);
}

Frame make_list_request() {
  Frame f;
  f.opcode = static_cast<std::uint8_t>(Opcode::kList);
  return f;
}

Frame make_reload_request() {
  Frame f;
  f.opcode = static_cast<std::uint8_t>(Opcode::kReload);
  return f;
}

Frame make_error_response(std::uint32_t artifact_id, WireError code,
                          const std::string& detail) {
  Frame f;
  f.opcode = kErrorOpcode;
  f.artifact_id = artifact_id;
  put_error(f.payload, code, detail);
  return f;
}

void put_error(std::vector<std::uint8_t>& out, WireError code,
               std::string_view detail) {
  out.push_back(static_cast<std::uint8_t>(code));
  out.insert(out.end(), detail.begin(), detail.end());
}

std::vector<QueryPair> decode_query_pairs(const Frame& frame) {
  std::vector<QueryPair> pairs(frame.payload.size() / 8);
  visit_query_pairs(
      frame.pair_count, frame.payload,
      [&](std::uint32_t i, QueryPair pair) { pairs[i] = pair; });
  return pairs;
}

std::vector<graph::NodeId> decode_next_hops(const Frame& frame) {
  check(frame.payload.size() == std::size_t{frame.pair_count} * 4,
        WireError::kMalformed,
        "next_hop response must hold exactly pair_count u32 hops");
  std::vector<graph::NodeId> hops(frame.pair_count);
  for (std::uint32_t i = 0; i < frame.pair_count; ++i) {
    hops[i] = load_u32(frame.payload.data() + std::size_t{i} * 4);
  }
  return hops;
}

std::vector<std::vector<graph::NodeId>> decode_routes(const Frame& frame) {
  std::vector<std::vector<graph::NodeId>> routes;
  routes.reserve(frame.pair_count);
  std::size_t pos = 0;
  const auto& p = frame.payload;
  for (std::uint32_t i = 0; i < frame.pair_count; ++i) {
    check(pos + 4 <= p.size(), WireError::kMalformed,
          "route response ends inside a path length");
    const std::uint32_t len = get_u32(p, pos);
    pos += 4;
    check(len <= (p.size() - pos) / 4, WireError::kMalformed,
          "route response ends inside a path");
    std::vector<graph::NodeId> path(len);
    for (std::uint32_t h = 0; h < len; ++h) {
      path[h] = get_u32(p, pos);
      pos += 4;
    }
    routes.push_back(std::move(path));
  }
  check(pos == p.size(), WireError::kMalformed,
        "trailing bytes after the declared routes");
  return routes;
}

ErrorInfo decode_error(const Frame& frame) {
  check(frame.is_error(), WireError::kMalformed,
        "decode_error on a non-error frame");
  check(!frame.payload.empty(), WireError::kMalformed,
        "error response without a code byte");
  ErrorInfo info;
  info.code = static_cast<WireError>(frame.payload[0]);
  info.detail.assign(frame.payload.begin() + 1, frame.payload.end());
  return info;
}

std::vector<ArtifactSummary> decode_artifact_list(const Frame& frame) {
  std::vector<ArtifactSummary> rows;
  rows.reserve(frame.pair_count);
  std::size_t pos = 0;
  const auto& p = frame.payload;
  for (std::uint32_t i = 0; i < frame.pair_count; ++i) {
    check(pos + 10 <= p.size(), WireError::kMalformed,
          "list response ends inside a row header");
    ArtifactSummary row;
    row.id = get_u32(p, pos);
    row.node_count = get_u32(p, pos + 4);
    row.kind = p[pos + 8];
    const std::size_t name_len = p[pos + 9];
    pos += 10;
    check(pos + name_len <= p.size(), WireError::kMalformed,
          "list response ends inside a name");
    row.name.assign(p.begin() + static_cast<std::ptrdiff_t>(pos),
                    p.begin() + static_cast<std::ptrdiff_t>(pos + name_len));
    pos += name_len;
    rows.push_back(std::move(row));
  }
  check(pos == p.size(), WireError::kMalformed,
        "trailing bytes after the declared rows");
  return rows;
}

}  // namespace optrt::serve
