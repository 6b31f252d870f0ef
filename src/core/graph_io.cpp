#include "core/graph_io.hpp"

#include "bitio/bit_stream.hpp"
#include "bitio/codes.hpp"
#include "graph/encoding.hpp"
#include "schemes/serialization.hpp"

namespace optrt::core {

void save_graph(const std::string& path, const graph::Graph& g) {
  bitio::BitWriter w;
  bitio::write_prime(w, g.node_count());
  w.write_vector(graph::encode(g));
  schemes::save_artifact(path, w.take());
}

graph::Graph decode_graph(std::span<const std::uint8_t> bytes) {
  const bitio::BitVector bits = schemes::from_bytes(bytes);
  bitio::BitReader r(bits);
  std::uint64_t n = 0;
  try {
    n = bitio::read_prime(r);
  } catch (const std::out_of_range&) {
    throw schemes::DecodeError(schemes::DecodeErrorKind::kTruncated,
                               "graph file ends inside its node count");
  } catch (const std::invalid_argument&) {
    throw schemes::DecodeError(schemes::DecodeErrorKind::kSemanticInvalid,
                               "graph file node count is malformed");
  }
  // E(G) holds one bit per node pair; a hostile n must not drive the
  // adjacency allocation in decode past the actual file contents. The
  // n < 2^32 bound keeps n·(n−1)/2 below any uint64 overflow.
  if (n >> 32 != 0) {
    throw schemes::DecodeError(schemes::DecodeErrorKind::kResourceLimit,
                               "graph node count exceeds 32 bits");
  }
  const auto pairs = static_cast<std::size_t>(n) * (n - 1) / 2;
  if (pairs > r.remaining()) {
    throw schemes::DecodeError(
        schemes::DecodeErrorKind::kResourceLimit,
        "graph node count exceeds the file's edge bits");
  }
  if (r.remaining() != pairs) {
    throw schemes::DecodeError(schemes::DecodeErrorKind::kSemanticInvalid,
                               "graph file size does not match E(G) for n");
  }
  return graph::decode(r.read_vector(pairs), static_cast<std::size_t>(n));
}

graph::Graph load_graph(const std::string& path) {
  return decode_graph(schemes::read_file(path));
}

}  // namespace optrt::core
