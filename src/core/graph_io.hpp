// Graph files: the Definition 2 encoding E(G) with a self-delimiting node
// count, packed into bytes — the on-disk interchange format of the CLI.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "graph/graph.hpp"

namespace optrt::core {

/// Writes [n]′ E(G) to `path`. Throws std::runtime_error on I/O errors.
void save_graph(const std::string& path, const graph::Graph& g);

/// Decodes the bytes of a graph file: the one bytes → Graph function,
/// behind load_graph and the daemon's artifact store alike. The length
/// prefix, node count and size checks run before anything is allocated
/// for n.
/// Throws schemes::DecodeError on malformed contents.
[[nodiscard]] graph::Graph decode_graph(std::span<const std::uint8_t> bytes);

/// Reads a graph written by save_graph: decode_graph over the file's
/// bytes. Throws std::runtime_error when the file cannot be read.
[[nodiscard]] graph::Graph load_graph(const std::string& path);

}  // namespace optrt::core
