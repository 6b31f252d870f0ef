// Scheme serialization: a routing scheme as a durable, integrity-framed
// artifact.
//
// A universal routing strategy (§1) produces, for each network, a routing
// scheme — which in practice must be shipped to the nodes and loaded. This
// module serializes schemes to a single self-delimiting bit string (and to
// byte buffers / files). Because the routing function *is* that bit string
// (the schemes route by decoding it), the decode path is the system's data
// plane, and the container is framed for integrity (format v1):
//
//   field            width      meaning
//   magic            32 bits    "ORT2" (0x3254524F)
//   version           8 bits    format version, currently 1
//   kind              8 bits    SchemeKind discriminator
//   node count       32 bits    n the scheme was built for
//   payload length   64 bits    payload size in bits
//   payload CRC32    32 bits    CRC-32 of the payload bits
//   payload          L bits     [environment section][per-node function bits]
//
// The 176-bit header is fixed-width — artifact overhead is independent of
// n. Every decoder validates magic, version, length, and checksum before
// any payload-driven allocation, then validates payload semantics (ports
// < degree, ids < n, exact consumption), throwing a typed DecodeError
// (see errors.hpp) on the first violation. Unframed v0 artifacts
// ("ORT1" + prime-coded kind and n, no checksum) still decode through a
// compatibility path.
//
// The payload's environment section carries what the model grants for free
// or fixes physically (the port assignment, the labelling); it is tagged
// separately so space accounting stays honest: function bits are the
// scheme's cost, environment bits are the network's.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bitio/bit_vector.hpp"
#include "model/fastpath.hpp"
#include "schemes/compact_diam2.hpp"
#include "schemes/errors.hpp"
#include "schemes/full_table.hpp"
#include "schemes/hierarchical.hpp"
#include "schemes/hub.hpp"
#include "schemes/landmark.hpp"
#include "schemes/routing_center.hpp"
#include "schemes/sequential_search.hpp"
#include "schemes/tz.hpp"

namespace optrt::schemes {

/// Scheme discriminator stored in the artifact header.
enum class SchemeKind : std::uint32_t {
  kCompactDiam2 = 1,
  kFullTable = 2,
  kHub = 3,
  kRoutingCenter = 4,
  kLandmark = 5,
  kHierarchical = 6,
  kSequentialSearch = 7,
  kThorupZwick = 8,
};

[[nodiscard]] const char* to_string(SchemeKind kind) noexcept;

/// Magic prefix ("ORT2") of every framed (v1) artifact.
inline constexpr std::uint32_t kFrameMagic = 0x3254524F;

/// Magic prefix ("ORT1") of legacy unframed (v0) artifacts.
inline constexpr std::uint32_t kLegacyMagic = 0x3154524F;

/// Current container format version.
inline constexpr std::uint8_t kFormatVersion = 1;

/// Fixed frame overhead: magic + version + kind + n + payload length +
/// CRC32. Independent of n and of the scheme kind.
inline constexpr std::size_t kFrameHeaderBits = 32 + 8 + 8 + 32 + 64 + 32;

/// Parsed frame metadata, as reported by inspect(). For v0 artifacts the
/// checksum fields are zero and payload_bits is the unframed remainder.
struct ArtifactInfo {
  std::uint8_t version = 0;
  SchemeKind kind = SchemeKind::kCompactDiam2;
  std::size_t node_count = 0;
  std::size_t payload_bits = 0;
  std::uint32_t crc_stored = 0;
  std::uint32_t crc_computed = 0;
};

/// Validates the container framing (magic, version, length, checksum — not
/// payload semantics) and returns the header fields. Throws DecodeError.
[[nodiscard]] ArtifactInfo inspect(const bitio::BitVector& artifact);

/// Reads the kind header of an artifact (validates the full frame).
[[nodiscard]] SchemeKind peek_kind(const bitio::BitVector& artifact);

/// Serializes a compact-diam2 scheme (options + per-node tables).
[[nodiscard]] bitio::BitVector serialize(const CompactDiam2Scheme& scheme);

/// Serializes a full-table scheme (labelling + port maps + tables).
[[nodiscard]] bitio::BitVector serialize(const FullTableScheme& scheme);

/// Reconstructs a compact-diam2 scheme over `g`. The graph supplies the
/// model II free knowledge; every routing table comes from the artifact.
[[nodiscard]] CompactDiam2Scheme deserialize_compact_diam2(
    const bitio::BitVector& artifact, const graph::Graph& g);

/// Reconstructs a full-table scheme over `g` (port maps and labelling are
/// restored from the artifact's environment section).
[[nodiscard]] FullTableScheme deserialize_full_table(
    const bitio::BitVector& artifact, const graph::Graph& g);

/// Serializes / reconstructs a Theorem 4 hub scheme.
[[nodiscard]] bitio::BitVector serialize(const HubScheme& scheme);
[[nodiscard]] HubScheme deserialize_hub(const bitio::BitVector& artifact,
                                        const graph::Graph& g);

/// Serializes / reconstructs a Theorem 3 routing-center scheme.
[[nodiscard]] bitio::BitVector serialize(const RoutingCenterScheme& scheme);
[[nodiscard]] RoutingCenterScheme deserialize_routing_center(
    const bitio::BitVector& artifact, const graph::Graph& g);

/// Serializes / reconstructs a landmark (stretch-<3) scheme.
[[nodiscard]] bitio::BitVector serialize(const LandmarkScheme& scheme);
[[nodiscard]] LandmarkScheme deserialize_landmark(
    const bitio::BitVector& artifact, const graph::Graph& g);

/// Serializes / reconstructs a k-level hierarchical scheme.
[[nodiscard]] bitio::BitVector serialize(const HierarchicalScheme& scheme);
[[nodiscard]] HierarchicalScheme deserialize_hierarchical(
    const bitio::BitVector& artifact, const graph::Graph& g);

/// Serializes / reconstructs a Theorem 5 sequential-search scheme (its
/// local routing functions are constant — the payload is empty; the frame
/// pins n so the artifact still binds to one network size).
[[nodiscard]] bitio::BitVector serialize(const SequentialSearchScheme& scheme);
[[nodiscard]] SequentialSearchScheme deserialize_sequential_search(
    const bitio::BitVector& artifact, const graph::Graph& g);

/// Serializes / reconstructs a Thorup-Zwick (stretch-≤3) scheme. Same
/// payload shape as the landmark scheme: the sorted landmark set, then the
/// per-node function bits; nearest landmarks and label exit ports are
/// recomputed from `g`.
[[nodiscard]] bitio::BitVector serialize(const TzScheme& scheme);
[[nodiscard]] TzScheme deserialize_tz(const bitio::BitVector& artifact,
                                      const graph::Graph& g);

/// Kind-dispatching decoder: reconstructs whatever scheme the artifact
/// holds. Throws DecodeError on any corruption or mismatch with `g`.
[[nodiscard]] std::unique_ptr<model::RoutingScheme> deserialize_any(
    const bitio::BitVector& artifact, const graph::Graph& g);

/// A deserialized scheme together with its compiled query-optimized form
/// (model/fastpath.hpp) and the kind its frame named. The scheme is kept
/// alive alongside the fast path so even a borrowed fallback fast path
/// stays valid.
struct FastScheme {
  SchemeKind kind = SchemeKind::kCompactDiam2;
  std::unique_ptr<model::RoutingScheme> scheme;
  std::shared_ptr<const model::FastPath> fast;
};

/// Decodes the artifact and returns its compiled fast path, parsing and
/// checksumming the frame once. Exactly the deserialize_any error
/// surface: most kinds compile inside their validating decode, so any
/// corruption throws the same typed DecodeError.
[[nodiscard]] FastScheme compile_fast_from_artifact(
    const bitio::BitVector& artifact, const graph::Graph& g);

// --- Byte and file transport --------------------------------------------------

/// Packs bits into bytes, length-prefixed so the bit count survives.
[[nodiscard]] std::vector<std::uint8_t> to_bytes(const bitio::BitVector& bits);
[[nodiscard]] bitio::BitVector from_bytes(std::span<const std::uint8_t> bytes);
[[nodiscard]] bitio::BitVector from_bytes(const std::vector<std::uint8_t>& bytes);

/// Writes/reads an artifact file. save_artifact is atomic: it writes to
/// `<path>.tmp` and renames, so a crash mid-write can never leave a torn
/// artifact at `path`. Throws std::runtime_error on I/O errors;
/// load_artifact throws DecodeError on malformed contents.
void save_artifact(const std::string& path, const bitio::BitVector& bits);
[[nodiscard]] bitio::BitVector load_artifact(const std::string& path);

/// The whole file at `path`, unparsed. Throws std::runtime_error naming
/// `path` when it cannot be opened.
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace optrt::schemes
