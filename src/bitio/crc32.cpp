#include "bitio/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace optrt::bitio {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

/// Slicing-by-16 tables: kTables[0] is the byte-at-a-time table, and
/// kTables[k][b] is the CRC contribution of byte b followed by k zero
/// bytes, so sixteen lookups fold one 16-byte block.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kTables = make_crc_tables();

constexpr std::uint32_t update(std::uint32_t crc, std::uint8_t byte) noexcept {
  return kTables[0][(crc ^ byte) & 0xFFu] ^ (crc >> 8);
}

/// The contribution of the 8 bytes whose little-endian image is `lane`,
/// when `ahead` more bytes follow them in the block being folded.
constexpr std::uint32_t slice(std::uint64_t lane, unsigned ahead) noexcept {
  const auto byte = [lane](unsigned k) { return (lane >> (8 * k)) & 0xFFu; };
  const CrcTables& t = kTables;
  return t[ahead + 7][byte(0)] ^ t[ahead + 6][byte(1)] ^ t[ahead + 5][byte(2)] ^
         t[ahead + 4][byte(3)] ^ t[ahead + 3][byte(4)] ^ t[ahead + 2][byte(5)] ^
         t[ahead + 1][byte(6)] ^ t[ahead][byte(7)];
}

/// Folds 8 bytes (little-endian image `lane`) into `crc`.
constexpr std::uint32_t fold8(std::uint32_t crc, std::uint64_t lane) noexcept {
  return slice(lane ^ crc, 0);
}

/// Folds 16 bytes (little-endian images `lo`, then `hi`) into `crc`.
constexpr std::uint32_t fold16(std::uint32_t crc, std::uint64_t lo,
                               std::uint64_t hi) noexcept {
  return slice(lo ^ crc, 8) ^ slice(hi, 0);
}

/// The little-endian 64-bit value of 8 bytes: one unaligned load.
std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t seed) noexcept {
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (; len >= 16; data += 16, len -= 16) {
    crc = fold16(crc, load_le64(data), load_le64(data + 8));
  }
  for (; len > 0; ++data, --len) crc = update(crc, *data);
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const BitVector& bits) noexcept {
  // Bit length first: distinguishes strings that pack to equal bytes.
  std::uint32_t crc = fold8(0xFFFFFFFFu, bits.size());
  // LSB-first packing with zero padding is the little-endian byte image of
  // the words (the BitVector zero-tail invariant), cut at ⌈n/8⌉ bytes:
  // whole words go in as lanes, the last partial word byte-wise.
  const std::vector<std::uint64_t>& words = bits.words();
  const std::size_t whole = bits.size() / 64;
  std::size_t i = 0;
  for (; i + 2 <= whole; i += 2) crc = fold16(crc, words[i], words[i + 1]);
  if (i < whole) crc = fold8(crc, words[i++]);
  const std::size_t tail_bytes = (bits.size() % 64 + 7) / 8;
  for (std::size_t b = 0; b < tail_bytes; ++b) {
    crc = update(crc, static_cast<std::uint8_t>(words[i] >> (8 * b)));
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace optrt::bitio
