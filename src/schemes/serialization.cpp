#include "schemes/serialization.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "bitio/crc32.hpp"
#include "obs/metrics.hpp"

namespace optrt::schemes {

namespace {

using bitio::BitReader;
using bitio::BitWriter;

/// Every serialize()/deserialize_*() entry point funnels through these two,
/// so `schemes.artifact.bits_out` / `bits_in` account for exactly the
/// artifact bits that crossed the codec boundary.
bitio::BitVector record_serialize(bitio::BitVector bits) {
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("schemes.artifact.serializes").inc();
  reg.counter("schemes.artifact.bits_out").inc(bits.size());
  return bits;
}

void record_deserialize(const bitio::BitVector& artifact) {
  auto& reg = obs::MetricsRegistry::global();
  reg.counter("schemes.artifact.deserializes").inc();
  reg.counter("schemes.artifact.bits_in").inc(artifact.size());
}

[[noreturn]] void fail(DecodeErrorKind kind, const std::string& what) {
  throw DecodeError(kind, what);
}

void check(bool ok, DecodeErrorKind kind, const char* what) {
  if (!ok) fail(kind, what);
}

bool valid_kind(std::uint64_t raw) noexcept {
  return raw >= static_cast<std::uint64_t>(SchemeKind::kCompactDiam2) &&
         raw <= static_cast<std::uint64_t>(SchemeKind::kThorupZwick);
}

/// Frame header plus the extracted (checksum-verified, for v1) payload.
struct Frame {
  ArtifactInfo info;
  bitio::BitVector payload;
};

/// Parses and validates the container framing of either format version.
/// The returned payload is an owned copy: its extraction is bounded by the
/// artifact's actual size, never by a decoded length field alone. Every
/// decode entry point parses (and, for v1, checksums) a frame exactly once;
/// `schemes.artifact.frames_read` counts the parses.
Frame read_frame(const bitio::BitVector& artifact) {
  obs::counter("schemes.artifact.frames_read").inc();
  check(artifact.size() >= 32, DecodeErrorKind::kTruncated,
        "artifact shorter than its magic");
  BitReader r(artifact);
  const auto magic = static_cast<std::uint32_t>(r.read_bits(32));
  Frame f;
  if (magic == kLegacyMagic) {
    // v0 compatibility: [magic][kind]'[n]' then the payload, unframed.
    f.info.version = 0;
    std::uint64_t kind_raw = 0;
    try {
      kind_raw = bitio::read_prime(r);
      f.info.node_count = static_cast<std::size_t>(bitio::read_prime(r));
    } catch (const std::out_of_range&) {
      fail(DecodeErrorKind::kTruncated, "v0 artifact ends inside its header");
    } catch (const std::invalid_argument&) {
      // A corrupted prime-code length field (e.g. one wider than 64 bits).
      fail(DecodeErrorKind::kSemanticInvalid, "v0 artifact header is malformed");
    }
    check(valid_kind(kind_raw), DecodeErrorKind::kSemanticInvalid,
          "v0 artifact names an unknown scheme kind");
    f.info.kind = static_cast<SchemeKind>(kind_raw);
    f.info.payload_bits = r.remaining();
    f.payload = r.read_vector(r.remaining());
    return f;
  }
  check(magic == kFrameMagic, DecodeErrorKind::kBadMagic,
        "artifact magic is neither ORT2 (framed) nor ORT1 (legacy)");
  check(artifact.size() >= kFrameHeaderBits, DecodeErrorKind::kTruncated,
        "artifact ends inside its frame header");
  f.info.version = static_cast<std::uint8_t>(r.read_bits(8));
  check(f.info.version == kFormatVersion, DecodeErrorKind::kVersionMismatch,
        "unsupported artifact format version");
  const std::uint64_t kind_raw = r.read_bits(8);
  check(valid_kind(kind_raw), DecodeErrorKind::kSemanticInvalid,
        "frame names an unknown scheme kind");
  f.info.kind = static_cast<SchemeKind>(kind_raw);
  f.info.node_count = static_cast<std::size_t>(r.read_bits(32));
  const std::uint64_t payload_bits = r.read_bits(64);
  f.info.crc_stored = static_cast<std::uint32_t>(r.read_bits(32));
  const std::uint64_t available = artifact.size() - kFrameHeaderBits;
  check(payload_bits <= available, DecodeErrorKind::kTruncated,
        "declared payload length exceeds the artifact");
  check(payload_bits == available, DecodeErrorKind::kSemanticInvalid,
        "trailing bits after the declared payload");
  f.info.payload_bits = static_cast<std::size_t>(payload_bits);
  f.payload = r.read_vector(r.remaining());
  f.info.crc_computed = bitio::crc32(f.payload);
  if (f.info.crc_computed != f.info.crc_stored) {
    obs::counter("artifact.crc_mismatch").inc();
    fail(DecodeErrorKind::kChecksumMismatch,
         "payload CRC32 disagrees with the stored checksum");
  }
  return f;
}

/// Frames a payload into a v1 artifact.
bitio::BitVector frame(SchemeKind kind, std::size_t n,
                       const bitio::BitVector& payload) {
  BitWriter w;
  w.write_bits(kFrameMagic, 32);
  w.write_bits(kFormatVersion, 8);
  w.write_bits(static_cast<std::uint64_t>(kind), 8);
  w.write_bits(n, 32);
  w.write_bits(payload.size(), 64);
  w.write_bits(bitio::crc32(payload), 32);
  w.write_vector(payload);
  return w.take();
}

/// Binds a validated frame to the graph it is decoded against.
void check_node_count(const ArtifactInfo& info, const graph::Graph& g) {
  check(info.node_count == g.node_count(), DecodeErrorKind::kSemanticInvalid,
        "artifact node count does not match the graph");
}

/// Shared decode prologue of the per-kind entry points: frame validation,
/// kind and node-count binding. Returns the payload ready for the per-kind
/// body decoder.
bitio::BitVector open_payload(const bitio::BitVector& artifact,
                              SchemeKind expected, const graph::Graph& g) {
  Frame f = read_frame(artifact);
  if (f.info.kind != expected) {
    fail(DecodeErrorKind::kSemanticInvalid,
         std::string("artifact holds a ") + to_string(f.info.kind) +
             " scheme, expected " + to_string(expected));
  }
  check_node_count(f.info, g);
  return std::move(f.payload);
}

/// Runs a per-kind body decode under the taxonomy: every escape hatch of
/// the legacy decode paths (BitReader exhaustion, scheme-constructor
/// invariants, construction preconditions) maps to a typed DecodeError,
/// and the ok/rejected counters see exactly one increment per attempt.
template <typename F>
auto guarded_decode(F&& body) -> decltype(body()) {
  try {
    auto result = body();
    obs::counter("artifact.decode_ok").inc();
    return result;
  } catch (const DecodeError&) {
    obs::counter("artifact.decode_rejected").inc();
    throw;
  } catch (const SchemeInapplicable& e) {
    obs::counter("artifact.decode_rejected").inc();
    throw DecodeError(DecodeErrorKind::kSemanticInvalid, e.what());
  } catch (const std::out_of_range& e) {
    obs::counter("artifact.decode_rejected").inc();
    throw DecodeError(DecodeErrorKind::kTruncated, e.what());
  } catch (const std::invalid_argument& e) {
    obs::counter("artifact.decode_rejected").inc();
    throw DecodeError(DecodeErrorKind::kSemanticInvalid, e.what());
  } catch (const std::length_error& e) {
    obs::counter("artifact.decode_rejected").inc();
    throw DecodeError(DecodeErrorKind::kResourceLimit, e.what());
  }
}

/// A per-kind entry point: counts the attempt, opens the frame as
/// `expected`, and decodes its payload with `body` under the taxonomy.
template <typename Body>
auto deserialize_as(const bitio::BitVector& artifact, SchemeKind expected,
                    const graph::Graph& g, Body body) {
  record_deserialize(artifact);
  return guarded_decode(
      [&] { return body(open_payload(artifact, expected, g), g); });
}

void write_bit_vector(BitWriter& w, const bitio::BitVector& bits) {
  bitio::write_prime(w, bits.size());
  w.write_vector(bits);
}

/// Reads a length-prefixed bit vector. The length is checked against the
/// reader's remaining bits *before* any allocation: a hostile length field
/// can never drive a multi-GB resize.
bitio::BitVector read_bit_vector(BitReader& r) {
  const std::uint64_t len = bitio::read_prime(r);
  check(len <= r.remaining(), DecodeErrorKind::kResourceLimit,
        "bit-vector length exceeds the remaining payload");
  return r.read_vector(static_cast<std::size_t>(len));
}

/// Reads a count of items occupying >= `min_bits_per_item` bits each,
/// checked against the remaining payload before any allocation.
std::size_t read_count(BitReader& r, std::size_t min_bits_per_item,
                       const char* what) {
  const std::uint64_t count = bitio::read_prime(r);
  const std::uint64_t per = min_bits_per_item == 0 ? 1 : min_bits_per_item;
  if (count > r.remaining() / per) {
    fail(DecodeErrorKind::kResourceLimit, what);
  }
  return static_cast<std::size_t>(count);
}

void require_exhausted(const BitReader& r) {
  check(r.exhausted(), DecodeErrorKind::kSemanticInvalid,
        "trailing bits after the scheme payload");
}

}  // namespace

const char* to_string(SchemeKind kind) noexcept {
  switch (kind) {
    case SchemeKind::kCompactDiam2: return "compact-diam2";
    case SchemeKind::kFullTable: return "full-table";
    case SchemeKind::kHub: return "hub";
    case SchemeKind::kRoutingCenter: return "routing-center";
    case SchemeKind::kLandmark: return "landmark";
    case SchemeKind::kHierarchical: return "hierarchical";
    case SchemeKind::kSequentialSearch: return "sequential-search";
    case SchemeKind::kThorupZwick: return "tz";
  }
  return "unknown";
}

ArtifactInfo inspect(const bitio::BitVector& artifact) {
  return read_frame(artifact).info;
}

SchemeKind peek_kind(const bitio::BitVector& artifact) {
  return read_frame(artifact).info.kind;
}

bitio::BitVector serialize(const CompactDiam2Scheme& scheme) {
  BitWriter w;
  w.write_bit(scheme.routing_model().neighbors_known());
  for (graph::NodeId u = 0; u < scheme.node_count(); ++u) {
    write_bit_vector(w, scheme.function_bits(u));
  }
  return record_serialize(
      frame(SchemeKind::kCompactDiam2, scheme.node_count(), w.take()));
}

namespace {

CompactDiam2Scheme decode_compact_diam2(const bitio::BitVector& payload,
                                        const graph::Graph& g) {
  BitReader r(payload);
  const std::size_t n = g.node_count();
  CompactDiam2Scheme::Options opt;
  opt.neighbors_known = r.read_bit();
  std::vector<bitio::BitVector> node_bits;
  node_bits.reserve(n);
  for (std::size_t u = 0; u < n; ++u) {
    node_bits.push_back(read_bit_vector(r));
  }
  require_exhausted(r);
  return CompactDiam2Scheme(g, opt, std::move(node_bits));
}

}  // namespace

CompactDiam2Scheme deserialize_compact_diam2(const bitio::BitVector& artifact,
                                             const graph::Graph& g) {
  return deserialize_as(artifact, SchemeKind::kCompactDiam2, g,
                        decode_compact_diam2);
}

bitio::BitVector serialize(const FullTableScheme& scheme) {
  const std::size_t n = scheme.node_count();
  const unsigned id_width = bitio::id_width(n);
  BitWriter w;
  // Environment: labelling permutation, then port → neighbour maps.
  for (graph::NodeId u = 0; u < n; ++u) {
    w.write_bits(scheme.label_of(u), id_width);
  }
  for (graph::NodeId u = 0; u < n; ++u) {
    const auto ports = scheme.ports().ports(u);
    bitio::write_prime(w, ports.size());
    for (graph::NodeId v : ports) w.write_bits(v, id_width);
  }
  // Model declaration.
  bitio::write_prime(w, static_cast<std::uint64_t>(
                            scheme.routing_model().knowledge));
  bitio::write_prime(w, static_cast<std::uint64_t>(
                            scheme.routing_model().relabeling));
  // Function bits.
  for (graph::NodeId u = 0; u < n; ++u) {
    write_bit_vector(w, scheme.function_bits(u));
  }
  return record_serialize(frame(SchemeKind::kFullTable, n, w.take()));
}

namespace {

FullTableScheme decode_full_table(const bitio::BitVector& payload,
                                  const graph::Graph& g) {
  BitReader r(payload);
  const std::size_t n = g.node_count();
  const unsigned id_width = bitio::id_width(n);
  std::vector<graph::NodeId> labels(n);
  for (auto& l : labels) {
    l = static_cast<graph::NodeId>(r.read_bits(id_width));
    check(l < n, DecodeErrorKind::kSemanticInvalid,
          "full-table label out of range");
  }
  std::vector<std::vector<graph::NodeId>> port_maps(n);
  for (graph::NodeId u = 0; u < n; ++u) {
    const std::size_t d =
        read_count(r, id_width, "port map larger than the payload");
    check(d == g.degree(u), DecodeErrorKind::kSemanticInvalid,
          "port map size does not match the node degree");
    port_maps[u].resize(d);
    for (auto& v : port_maps[u]) {
      v = static_cast<graph::NodeId>(r.read_bits(id_width));
      check(v < n, DecodeErrorKind::kSemanticInvalid,
            "port map entry out of range");
    }
  }
  model::Model m;
  const std::uint64_t knowledge = bitio::read_prime(r);
  const std::uint64_t relabeling = bitio::read_prime(r);
  check(knowledge <= static_cast<std::uint64_t>(
                         model::Knowledge::kNeighborsKnown),
        DecodeErrorKind::kSemanticInvalid, "unknown knowledge model");
  check(relabeling <= static_cast<std::uint64_t>(
                          model::Relabeling::kArbitrary),
        DecodeErrorKind::kSemanticInvalid, "unknown relabeling model");
  m.knowledge = static_cast<model::Knowledge>(knowledge);
  m.relabeling = static_cast<model::Relabeling>(relabeling);
  std::vector<bitio::BitVector> tables;
  tables.reserve(n);
  for (std::size_t u = 0; u < n; ++u) tables.push_back(read_bit_vector(r));
  require_exhausted(r);
  // The table-validating constructor checks per-entry port bounds.
  return FullTableScheme(g, graph::PortAssignment::from_port_maps(
                                g, std::move(port_maps)),
                         graph::Labeling::permutation(std::move(labels)), m,
                         std::move(tables));
}

}  // namespace

FullTableScheme deserialize_full_table(const bitio::BitVector& artifact,
                                       const graph::Graph& g) {
  return deserialize_as(artifact, SchemeKind::kFullTable, g, decode_full_table);
}

bitio::BitVector serialize(const HubScheme& scheme) {
  BitWriter w;
  bitio::write_prime(w, scheme.hub());
  bitio::write_prime(w, scheme.rank_width());
  for (graph::NodeId u = 0; u < scheme.node_count(); ++u) {
    write_bit_vector(w, scheme.function_bits(u));
  }
  return record_serialize(
      frame(SchemeKind::kHub, scheme.node_count(), w.take()));
}

namespace {

HubScheme decode_hub(const bitio::BitVector& payload,
                     const graph::Graph& g) {
  BitReader r(payload);
  const std::size_t n = g.node_count();
  const std::uint64_t hub = bitio::read_prime(r);
  check(hub < n, DecodeErrorKind::kSemanticInvalid, "hub id out of range");
  const std::uint64_t rank_width = bitio::read_prime(r);
  check(rank_width <= 64, DecodeErrorKind::kSemanticInvalid,
        "hub rank width exceeds 64 bits");
  std::vector<bitio::BitVector> node_bits;
  node_bits.reserve(n);
  for (std::size_t u = 0; u < n; ++u) node_bits.push_back(read_bit_vector(r));
  require_exhausted(r);
  return HubScheme(g, static_cast<graph::NodeId>(hub),
                   static_cast<unsigned>(rank_width), std::move(node_bits));
}

}  // namespace

HubScheme deserialize_hub(const bitio::BitVector& artifact,
                          const graph::Graph& g) {
  return deserialize_as(artifact, SchemeKind::kHub, g, decode_hub);
}

bitio::BitVector serialize(const RoutingCenterScheme& scheme) {
  const std::size_t n = scheme.node_count();
  const unsigned id_width = bitio::id_width(n);
  BitWriter w;
  bitio::write_prime(w, scheme.centers().size());
  for (graph::NodeId b : scheme.centers()) w.write_bits(b, id_width);
  for (graph::NodeId u = 0; u < n; ++u) {
    write_bit_vector(w, scheme.function_bits(u));
  }
  return record_serialize(frame(SchemeKind::kRoutingCenter, n, w.take()));
}

namespace {

RoutingCenterScheme decode_routing_center(const bitio::BitVector& payload,
                                          const graph::Graph& g) {
  BitReader r(payload);
  const std::size_t n = g.node_count();
  const unsigned id_width = bitio::id_width(n);
  const std::size_t count =
      read_count(r, id_width, "center set larger than the payload");
  check(count <= n, DecodeErrorKind::kSemanticInvalid,
        "more centers than nodes");
  std::vector<graph::NodeId> centers(count);
  for (auto& b : centers) {
    b = static_cast<graph::NodeId>(r.read_bits(id_width));
    check(b < n, DecodeErrorKind::kSemanticInvalid,
          "center id out of range");
  }
  std::vector<bitio::BitVector> node_bits;
  node_bits.reserve(n);
  for (std::size_t u = 0; u < n; ++u) node_bits.push_back(read_bit_vector(r));
  require_exhausted(r);
  return RoutingCenterScheme(g, std::move(centers), std::move(node_bits));
}

}  // namespace

RoutingCenterScheme deserialize_routing_center(const bitio::BitVector& artifact,
                                               const graph::Graph& g) {
  return deserialize_as(artifact, SchemeKind::kRoutingCenter, g,
                        decode_routing_center);
}

namespace {

/// Landmark and TZ payloads: the sorted landmark set, then the per-node
/// function bits. The scheme's validating constructor recomputes nearest
/// landmarks (and TZ's exit ports) from the graph with one multi-source
/// BFS over the landmarks (nearest_landmarks, schemes/landmark_table); a
/// TZ payload whose graph leaves a node unreachable from every landmark
/// is rejected as semantically invalid.
template <typename Scheme>
bitio::BitVector serialize_landmark_payload(SchemeKind kind,
                                            const Scheme& scheme) {
  const std::size_t n = scheme.node_count();
  const unsigned id_width = bitio::id_width(n);
  BitWriter w;
  bitio::write_prime(w, scheme.landmarks().size());
  for (graph::NodeId l : scheme.landmarks()) w.write_bits(l, id_width);
  for (graph::NodeId u = 0; u < n; ++u) {
    write_bit_vector(w, scheme.function_bits(u));
  }
  return record_serialize(frame(kind, n, w.take()));
}

template <typename Scheme>
Scheme decode_landmark_payload(const bitio::BitVector& payload,
                               const graph::Graph& g) {
  BitReader r(payload);
  const std::size_t n = g.node_count();
  const unsigned id_width = bitio::id_width(n);
  const std::size_t count =
      read_count(r, id_width, "landmark set larger than the payload");
  check(count <= n, DecodeErrorKind::kSemanticInvalid,
        "more landmarks than nodes");
  std::vector<graph::NodeId> landmarks(count);
  for (auto& l : landmarks) {
    l = static_cast<graph::NodeId>(r.read_bits(id_width));
    check(l < n, DecodeErrorKind::kSemanticInvalid,
          "landmark id out of range");
  }
  std::vector<bitio::BitVector> node_bits;
  node_bits.reserve(n);
  for (std::size_t u = 0; u < n; ++u) node_bits.push_back(read_bit_vector(r));
  require_exhausted(r);
  return Scheme(g, std::move(landmarks), std::move(node_bits));
}

constexpr auto decode_landmark = decode_landmark_payload<LandmarkScheme>;
constexpr auto decode_tz = decode_landmark_payload<TzScheme>;

}  // namespace

bitio::BitVector serialize(const LandmarkScheme& scheme) {
  return serialize_landmark_payload(SchemeKind::kLandmark, scheme);
}

LandmarkScheme deserialize_landmark(const bitio::BitVector& artifact,
                                    const graph::Graph& g) {
  return deserialize_as(artifact, SchemeKind::kLandmark, g, decode_landmark);
}

bitio::BitVector serialize(const HierarchicalScheme& scheme) {
  const std::size_t n = scheme.node_count();
  const unsigned id_width = bitio::id_width(n);
  BitWriter w;
  bitio::write_prime(w, scheme.levels());
  for (std::size_t i = 1; i < scheme.levels(); ++i) {
    bitio::write_prime(w, scheme.pivots(i).size());
    for (graph::NodeId t : scheme.pivots(i)) w.write_bits(t, id_width);
  }
  for (graph::NodeId u = 0; u < n; ++u) {
    write_bit_vector(w, scheme.function_bits(u));
  }
  return record_serialize(frame(SchemeKind::kHierarchical, n, w.take()));
}

namespace {

HierarchicalScheme decode_hierarchical(const bitio::BitVector& payload,
                                       const graph::Graph& g) {
  BitReader r(payload);
  const std::size_t n = g.node_count();
  const unsigned id_width = bitio::id_width(n);
  const std::uint64_t levels = bitio::read_prime(r);
  check(levels >= 2, DecodeErrorKind::kSemanticInvalid,
        "hierarchy needs at least 2 levels");
  check(levels <= n, DecodeErrorKind::kResourceLimit,
        "more hierarchy levels than nodes");
  std::vector<std::vector<graph::NodeId>> pivot_sets(
      static_cast<std::size_t>(levels));
  for (std::size_t i = 1; i < levels; ++i) {
    const std::size_t count =
        read_count(r, id_width, "pivot set larger than the payload");
    check(count <= n, DecodeErrorKind::kSemanticInvalid,
          "more pivots than nodes");
    pivot_sets[i].resize(count);
    for (auto& t : pivot_sets[i]) {
      t = static_cast<graph::NodeId>(r.read_bits(id_width));
      check(t < n, DecodeErrorKind::kSemanticInvalid,
            "pivot id out of range");
    }
  }
  std::vector<bitio::BitVector> node_bits;
  node_bits.reserve(n);
  for (std::size_t u = 0; u < n; ++u) node_bits.push_back(read_bit_vector(r));
  require_exhausted(r);
  return HierarchicalScheme(g, std::move(pivot_sets), std::move(node_bits));
}

}  // namespace

HierarchicalScheme deserialize_hierarchical(const bitio::BitVector& artifact,
                                            const graph::Graph& g) {
  return deserialize_as(artifact, SchemeKind::kHierarchical, g,
                        decode_hierarchical);
}

bitio::BitVector serialize(const SequentialSearchScheme& scheme) {
  return record_serialize(frame(SchemeKind::kSequentialSearch,
                                scheme.node_count(), bitio::BitVector()));
}

namespace {

SequentialSearchScheme decode_sequential_search(
    const bitio::BitVector& payload, const graph::Graph& g) {
  check(payload.empty(), DecodeErrorKind::kSemanticInvalid,
        "sequential-search payload must be empty");
  return SequentialSearchScheme(g);
}

}  // namespace

SequentialSearchScheme deserialize_sequential_search(
    const bitio::BitVector& artifact, const graph::Graph& g) {
  return deserialize_as(artifact, SchemeKind::kSequentialSearch, g,
                        decode_sequential_search);
}

bitio::BitVector serialize(const TzScheme& scheme) {
  return serialize_landmark_payload(SchemeKind::kThorupZwick, scheme);
}

TzScheme deserialize_tz(const bitio::BitVector& artifact,
                        const graph::Graph& g) {
  return deserialize_as(artifact, SchemeKind::kThorupZwick, g, decode_tz);
}

namespace {

/// Dispatches a validated, bound payload to its kind's body decoder.
std::unique_ptr<model::RoutingScheme> decode_payload(
    SchemeKind kind, const bitio::BitVector& payload, const graph::Graph& g) {
  switch (kind) {
    case SchemeKind::kCompactDiam2:
      return std::make_unique<CompactDiam2Scheme>(
          decode_compact_diam2(payload, g));
    case SchemeKind::kFullTable:
      return std::make_unique<FullTableScheme>(decode_full_table(payload, g));
    case SchemeKind::kHub:
      return std::make_unique<HubScheme>(decode_hub(payload, g));
    case SchemeKind::kRoutingCenter:
      return std::make_unique<RoutingCenterScheme>(
          decode_routing_center(payload, g));
    case SchemeKind::kLandmark:
      return std::make_unique<LandmarkScheme>(decode_landmark(payload, g));
    case SchemeKind::kHierarchical:
      return std::make_unique<HierarchicalScheme>(
          decode_hierarchical(payload, g));
    case SchemeKind::kSequentialSearch:
      return std::make_unique<SequentialSearchScheme>(
          decode_sequential_search(payload, g));
    case SchemeKind::kThorupZwick:
      return std::make_unique<TzScheme>(decode_tz(payload, g));
  }
  fail(DecodeErrorKind::kSemanticInvalid, "unknown scheme kind");
}

/// The kind-dispatching decode: one frame parse and CRC, then the body
/// decode of whatever kind the frame names. The result's fast path is
/// left empty.
FastScheme decode_any(const bitio::BitVector& artifact,
                      const graph::Graph& g) {
  Frame f;
  try {
    f = read_frame(artifact);
  } catch (const DecodeError&) {
    // Frame-level rejections never reach the body guard (which would
    // count them), so count the attempt here.
    obs::counter("artifact.decode_rejected").inc();
    throw;
  }
  record_deserialize(artifact);
  FastScheme result;
  result.kind = f.info.kind;
  result.scheme = guarded_decode([&] {
    check_node_count(f.info, g);
    return decode_payload(f.info.kind, f.payload, g);
  });
  return result;
}

}  // namespace

std::unique_ptr<model::RoutingScheme> deserialize_any(
    const bitio::BitVector& artifact, const graph::Graph& g) {
  return decode_any(artifact, g).scheme;
}

FastScheme compile_fast_from_artifact(const bitio::BitVector& artifact,
                                      const graph::Graph& g) {
  FastScheme result = decode_any(artifact, g);
  result.fast = result.scheme->compile_fast();
  return result;
}

std::vector<std::uint8_t> to_bytes(const bitio::BitVector& bits) {
  const std::uint64_t count = bits.size();
  std::vector<std::uint8_t> bytes(8 + (count + 7) / 8);
  // 64-bit little-endian bit-count prefix.
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(count >> (8 * i));
  }
  // LSB-first packing with zero padding is the little-endian byte image of
  // the words (BitVector's zero-tail invariant).
  std::size_t at = 8;
  for (const std::uint64_t w : bits.words()) {
    for (std::size_t b = 0; b < 8 && at < bytes.size(); ++b) {
      bytes[at++] = static_cast<std::uint8_t>(w >> (8 * b));
    }
  }
  return bytes;
}

bitio::BitVector from_bytes(const std::vector<std::uint8_t>& bytes) {
  return from_bytes(std::span<const std::uint8_t>(bytes));
}

bitio::BitVector from_bytes(std::span<const std::uint8_t> bytes) {
  check(bytes.size() >= 8, DecodeErrorKind::kTruncated,
        "from_bytes: truncated bit-count header");
  std::uint64_t count = 0;
  for (int i = 0; i < 8; ++i) {
    count |= static_cast<std::uint64_t>(bytes[static_cast<std::size_t>(i)])
             << (8 * i);
  }
  // Bound the declared bit count by the actual payload *before* any
  // allocation (the naive (count+7)/8 also overflows near 2^64).
  const std::uint64_t payload_bytes = bytes.size() - 8;
  check(count <= payload_bytes * 8, DecodeErrorKind::kTruncated,
        "from_bytes: truncated payload");
  check(payload_bytes == (count + 7) / 8, DecodeErrorKind::kSemanticInvalid,
        "from_bytes: trailing bytes after the declared payload");
  // Zero padding bits in the final partial byte are part of the format;
  // a flipped padding bit is corruption, not slack.
  if (count % 8 != 0) {
    const std::uint8_t tail = bytes.back();
    check((tail >> (count % 8)) == 0, DecodeErrorKind::kSemanticInvalid,
          "from_bytes: nonzero padding bits");
  }
  std::vector<std::uint64_t> words(static_cast<std::size_t>((count + 63) / 64));
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    words[i / 8] |= static_cast<std::uint64_t>(bytes[8 + i]) << (8 * (i % 8));
  }
  return bitio::BitVector(std::move(words), static_cast<std::size_t>(count));
}

void save_artifact(const std::string& path, const bitio::BitVector& bits) {
  obs::counter("schemes.artifact.saves").inc();
  const auto bytes = to_bytes(bits);
  // Atomic write: stage into <path>.tmp and rename over the target, so a
  // crash mid-write can never leave a torn artifact at `path`.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("save_artifact: cannot open " + tmp);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      throw std::runtime_error("save_artifact: write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("save_artifact: rename failed: " + path);
  }
}

bitio::BitVector load_artifact(const std::string& path) {
  obs::counter("schemes.artifact.loads").inc();
  return from_bytes(read_file(path));
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  // One read of the whole file when its size is known; whatever is left
  // (a file that grew, or one whose size cannot be asked) is read bytewise.
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  std::vector<std::uint8_t> bytes(ec ? 0 : static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  if (in) bytes.insert(bytes.end(), std::istreambuf_iterator<char>(in), {});
  return bytes;
}

}  // namespace optrt::schemes
