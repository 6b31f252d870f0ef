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
// Two kernels compute the same values:
//  - a PCLMULQDQ kernel (Gopal et al., "Fast CRC Computation for Generic
//    Polynomials Using PCLMULQDQ", Intel 2009): four 128-bit lanes fold
//    64 bytes per step by carry-less multiplication with the
//    reflected-polynomial constants zlib and Linux use, then a Barrett
//    reduction ends at 32 bits. It is compiled with a function-level
//    target attribute (no -march flag) and chosen once, at the first call,
//    when the CPU reports PCLMULQDQ and SSE4.1;
//  - slicing-by-16 (sixteen 256-entry tables, two little-endian 64-bit
//    lanes per 16-byte step, then byte-wise), the portable kernel.
// The PCLMULQDQ kernel takes the whole 16-byte blocks of inputs of 64
// bytes or more; slicing-by-16 takes the tail after the last block, every
// shorter input, CPUs without PCLMULQDQ and builds for other than x86-64.
// The BitVector overload feeds its 8-byte length prefix in as one lane,
// then on little-endian hosts checksums the words' memory — already the
// packed byte image — through the same dispatch, so ORT2 frame checks run
// the same kernel as ORTP frames; big-endian hosts feed the words in as
// lanes.
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

namespace detail {

/// crc32 through slicing-by-16 alone, whatever the CPU: the fallback
/// kernel, exposed so tests hold it to the dispatched one on hosts that
/// never fall back.
[[nodiscard]] std::uint32_t crc32_portable(const std::uint8_t* data,
                                           std::size_t len,
                                           std::uint32_t seed = 0) noexcept;

}  // namespace detail

}  // namespace optrt::bitio
