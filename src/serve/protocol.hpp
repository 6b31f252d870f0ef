// ORTP v1: the wire protocol of the route-serving daemon.
//
// The serving layer speaks length-prefixed binary frames over Unix or TCP
// stream sockets. Like the ORT2 artifact container the frames carry a
// CRC32 of their payload, so a flipped bit on the wire is a typed error
// response, never a garbage route. All integers are little-endian; the
// fixed header is 24 bytes:
//
//   offset size field
//   0      4    magic "ORTP" (0x5054524F)
//   4      1    version, currently 1
//   5      1    opcode (request) / opcode | 0x80 (success response) /
//               0x7F (error response)
//   6      2    reserved, must be zero
//   8      4    artifact id
//   12     4    pair count
//   16     4    payload length in bytes
//   20     4    CRC32 of the payload bytes
//   24     …    payload
//
// Request payloads:
//   kPing    — empty.
//   kNextHop — pair_count × { u32 src, u32 dst } node ids (8 bytes/pair).
//   kRoute   — same as kNextHop.
//   kList    — empty.
//   kReload  — empty.
//
// Success responses echo the request opcode with the high bit set:
//   kPing    — empty.
//   kNextHop — pair_count × u32 first hop (node id).
//   kRoute   — per pair: u32 hop count k, then k × u32 node ids (the full
//              path, source excluded, destination included).
//   kList    — pair_count = artifact count; per artifact: u32 id, u32 n,
//              u8 scheme kind, u8 name length, name bytes.
//   kReload  — u32 artifacts now served.
//
// The error response (opcode 0x7F) carries u8 error code + UTF-8 detail.
// Every parser failure is a typed ProtocolError classified like the ORT2
// DecodeError taxonomy, and the chaos suite holds the server to "typed
// error or bit-exact round-trip, never a crash or hang" under seeded
// frame corruption.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"

namespace optrt::serve {

/// Leading magic of every ORTP frame ("ORTP", little-endian).
inline constexpr std::uint32_t kWireMagic = 0x5054524F;

/// Current protocol version.
inline constexpr std::uint8_t kWireVersion = 1;

/// Fixed frame header size in bytes.
inline constexpr std::size_t kWireHeaderBytes = 24;

/// Resource limits enforced before any payload-driven allocation.
inline constexpr std::size_t kMaxPayloadBytes = 1u << 22;  // 4 MiB
inline constexpr std::size_t kMaxPairsPerRequest = 1u << 16;

/// Request opcodes. Success responses carry opcode | kResponseBit.
enum class Opcode : std::uint8_t {
  kPing = 1,
  kNextHop = 2,
  kRoute = 3,
  kList = 4,
  kReload = 5,
};

/// The largest request opcode; tables indexed by opcode are sized from
/// it, so it moves with the last enumerator above.
inline constexpr std::uint8_t kMaxOpcode =
    static_cast<std::uint8_t>(Opcode::kReload);

inline constexpr std::uint8_t kResponseBit = 0x80;
inline constexpr std::uint8_t kErrorOpcode = 0x7F;

/// The opcode rules, on the raw opcode byte of any frame.
[[nodiscard]] constexpr bool is_error_opcode(std::uint8_t op) noexcept {
  return op == kErrorOpcode;
}
[[nodiscard]] constexpr bool is_response_opcode(std::uint8_t op) noexcept {
  return (op & kResponseBit) != 0;
}

[[nodiscard]] const char* to_string(Opcode op) noexcept;

/// Why a frame (or a request inside a valid frame) was rejected, ordered
/// by the integrity layer that catches it — the wire-side mirror of
/// schemes::DecodeErrorKind.
enum class WireError : std::uint8_t {
  kBadMagic = 1,         ///< leading magic is not "ORTP"
  kVersionMismatch = 2,  ///< unknown protocol version
  kBadOpcode = 3,        ///< opcode outside the request menu
  kTruncated = 4,        ///< stream/buffer ends inside a declared frame
  kChecksumMismatch = 5, ///< payload CRC32 disagrees with the header
  kResourceLimit = 6,    ///< declared payload/pair count exceeds the limits
  kMalformed = 7,        ///< lengths decode but violate the opcode's shape
  kUnknownArtifact = 8,  ///< artifact id not in the served catalog
  kBadPair = 9,          ///< src/dst out of range or equal
  kInternal = 10,        ///< server-side failure while answering
};

/// The largest error code; tables indexed by code are sized from it, so it
/// moves with the last enumerator above.
inline constexpr std::uint8_t kMaxWireError =
    static_cast<std::uint8_t>(WireError::kInternal);

[[nodiscard]] const char* to_string(WireError code) noexcept;

/// Typed parse/validation failure; carries the taxonomy code that a
/// server turns into an error response frame.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(WireError code, const std::string& what)
      : std::runtime_error(std::string(to_string(code)) + ": " + what),
        code_(code) {}

  [[nodiscard]] WireError code() const noexcept { return code_; }

 private:
  WireError code_;
};

/// One parsed frame: header fields plus owned payload bytes.
struct Frame {
  std::uint8_t opcode = 0;  ///< raw: request, response-bit, or error opcode
  std::uint32_t artifact_id = 0;
  std::uint32_t pair_count = 0;
  std::vector<std::uint8_t> payload;

  [[nodiscard]] bool is_error() const noexcept {
    return is_error_opcode(opcode);
  }
  [[nodiscard]] bool is_response() const noexcept {
    return is_response_opcode(opcode);
  }

  bool operator==(const Frame&) const = default;
};

namespace detail {

/// Every u32 codec goes through these two: one 4-byte load or store,
/// byte-swapped only on a big-endian host.
inline std::uint32_t load_u32(const std::uint8_t* at) noexcept {
  std::uint32_t v;
  std::memcpy(&v, at, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

inline std::uint8_t* store_u32(std::uint8_t* at, std::uint32_t v) noexcept {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(at, &v, sizeof v);
  return at + sizeof v;
}

}  // namespace detail

/// Little-endian integer accessors used by every payload codec. put_u32s
/// appends a whole run of values, growing `out` once.
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u32s(std::vector<std::uint8_t>& out,
              std::span<const std::uint32_t> values);
[[nodiscard]] std::uint32_t get_u32(std::span<const std::uint8_t> bytes,
                                    std::size_t offset);

// ---- The frame codec --------------------------------------------------
//
// One writer and one validator serve every frame: encode_frame and
// parse_frame, the daemon's request path and Client::call. The validator
// runs in two halves — parse_header on the first 24 bytes, which bounds
// the payload before anything is allocated for it, then check_payload
// once the payload is in. Nothing is copied: check_payload checksums the
// payload where it lies and hands back a view.

/// The fixed header fields of one frame.
struct FrameHeader {
  std::uint8_t opcode = 0;  ///< raw: request, response-bit, or error opcode
  std::uint32_t artifact_id = 0;
  std::uint32_t pair_count = 0;
  std::uint32_t payload_len = 0;
  std::uint32_t crc = 0;  ///< the CRC32 the header declares for the payload
};

/// Writes the 24-byte header of a frame carrying `payload` to `out`,
/// computing the payload's CRC32 (0 for an empty payload).
void write_header(std::uint8_t* out, std::uint8_t opcode,
                  std::uint32_t artifact_id, std::uint32_t pair_count,
                  std::span<const std::uint8_t> payload);

/// Validates the 24-byte header at the front of `bytes` (magic, version,
/// opcode, reserved, limits) and returns its fields. Throws
/// ProtocolError; a buffer shorter than the header is kTruncated.
[[nodiscard]] FrameHeader parse_header(std::span<const std::uint8_t> bytes);

/// The payload `header` declares, at the front of `after_header` (the
/// bytes that follow the header), checked against the header's CRC32 in
/// place. Throws ProtocolError: kTruncated when the bytes end inside the
/// payload, kChecksumMismatch when the CRC disagrees. Bytes past the
/// declared payload are not looked at.
[[nodiscard]] std::span<const std::uint8_t> check_payload(
    const FrameHeader& header, std::span<const std::uint8_t> after_header);

/// Serializes a frame: header (with computed CRC) + payload.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// parse_header, then check_payload, on one complete frame at the front of
/// `bytes`, with the payload copied into an owned Frame. On success sets
/// `consumed` to the frame's total size. Throws ProtocolError on any
/// violation.
[[nodiscard]] Frame parse_frame(std::span<const std::uint8_t> bytes,
                                std::size_t* consumed = nullptr);

/// One (src, dst) query in node-id space.
struct QueryPair {
  graph::NodeId src = 0;
  graph::NodeId dst = 0;

  bool operator==(const QueryPair&) const = default;
};

/// The one reader of kNextHop/kRoute request payloads: throws
/// ProtocolError(kMalformed) unless `payload` holds exactly `pair_count`
/// 8-byte pairs, then calls visit(i, pair) for each pair in order.
/// decode_query_pairs collects them; the server's request path checks and
/// labels them on the fly.
template <typename Visit>
void visit_query_pairs(std::uint32_t pair_count,
                       std::span<const std::uint8_t> payload, Visit&& visit) {
  if (payload.size() != std::size_t{pair_count} * 8) {
    throw ProtocolError(WireError::kMalformed,
                        "query payload must hold exactly pair_count 8-byte "
                        "pairs");
  }
  const std::uint8_t* at = payload.data();
  for (std::uint32_t i = 0; i < pair_count; ++i, at += 8) {
    visit(i, QueryPair{detail::load_u32(at), detail::load_u32(at + 4)});
  }
}

/// Request builders.
[[nodiscard]] Frame make_ping_request();
[[nodiscard]] Frame make_next_hop_request(std::uint32_t artifact_id,
                                          std::span<const QueryPair> pairs);
[[nodiscard]] Frame make_route_request(std::uint32_t artifact_id,
                                       std::span<const QueryPair> pairs);
[[nodiscard]] Frame make_list_request();
[[nodiscard]] Frame make_reload_request();

/// Error-response builder (pair_count = 0, artifact id echoed).
[[nodiscard]] Frame make_error_response(std::uint32_t artifact_id,
                                        WireError code,
                                        const std::string& detail);

/// Appends an error-response payload (code byte, then the detail bytes).
void put_error(std::vector<std::uint8_t>& out, WireError code,
               std::string_view detail);

/// Decodes a kNextHop/kRoute request payload into pairs. Throws
/// ProtocolError(kMalformed) when the payload does not hold exactly
/// pair_count 8-byte pairs.
[[nodiscard]] std::vector<QueryPair> decode_query_pairs(const Frame& frame);

/// Decodes a kNextHop success-response payload (pair_count u32 hops).
[[nodiscard]] std::vector<graph::NodeId> decode_next_hops(const Frame& frame);

/// Decodes a kRoute success-response payload (length-prefixed paths).
[[nodiscard]] std::vector<std::vector<graph::NodeId>> decode_routes(
    const Frame& frame);

/// Decoded error response.
struct ErrorInfo {
  WireError code = WireError::kInternal;
  std::string detail;
};
[[nodiscard]] ErrorInfo decode_error(const Frame& frame);

/// One catalog row of a kList response.
struct ArtifactSummary {
  std::uint32_t id = 0;
  std::uint32_t node_count = 0;
  std::uint8_t kind = 0;  ///< schemes::SchemeKind discriminator
  std::string name;

  bool operator==(const ArtifactSummary&) const = default;
};
[[nodiscard]] std::vector<ArtifactSummary> decode_artifact_list(
    const Frame& frame);

}  // namespace optrt::serve
