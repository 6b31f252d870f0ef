// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over bytes and
// BitVectors.
//
// The artifact container in schemes/serialization frames every serialized
// routing scheme with a CRC32 of its payload bits, so a single flipped bit
// anywhere in the payload is caught before any decoder runs. The BitVector
// overload packs bits into bytes least-significant-bit first — the same
// convention as schemes::to_bytes — so the checksum of an artifact's bits
// equals the checksum of its on-disk payload bytes.
//
// Both overloads fold 16 bytes per step through slicing-by-16 tables
// (sixteen 256-entry tables, two little-endian 64-bit lanes per step) and
// finish byte-wise; the BitVector overload feeds its length prefix and
// whole words in directly as lanes, since they already are the
// little-endian byte image.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bitio/bit_vector.hpp"

namespace optrt::bitio {

/// CRC-32 of `len` bytes, continuing from `seed` (pass the previous return
/// value to checksum a split buffer; 0 starts a fresh checksum).
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                                  std::uint32_t seed = 0) noexcept;

/// CRC-32 of a bit string: the 8 little-endian bytes of its bit length,
/// then the bits packed LSB-first into bytes (the final partial byte, if
/// any, zero-padded high) — the bytes schemes::to_bytes writes. Including
/// the length makes e.g. "0" and "00" hash differently.
[[nodiscard]] std::uint32_t crc32(const BitVector& bits) noexcept;

}  // namespace optrt::bitio
