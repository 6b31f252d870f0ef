#include "bitio/crc32.hpp"

#include <array>

namespace optrt::bitio {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

constexpr std::uint32_t update(std::uint32_t crc, std::uint8_t byte) noexcept {
  return kCrcTable[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t seed) noexcept {
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) crc = update(crc, data[i]);
  return crc ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const BitVector& bits) noexcept {
  std::uint32_t crc = 0xFFFFFFFFu;
  // Bit length first: distinguishes strings that pack to equal bytes.
  const std::uint64_t n = bits.size();
  for (int i = 0; i < 8; ++i) {
    crc = update(crc, static_cast<std::uint8_t>(n >> (8 * i)));
  }
  // LSB-first packing with zero padding is the little-endian byte image of
  // the words (the BitVector zero-tail invariant), cut at ⌈n/8⌉ bytes.
  std::size_t bytes_left = (bits.size() + 7) / 8;
  for (const std::uint64_t w : bits.words()) {
    const std::size_t take = bytes_left < 8 ? bytes_left : 8;
    for (std::size_t b = 0; b < take; ++b) {
      crc = update(crc, static_cast<std::uint8_t>(w >> (8 * b)));
    }
    bytes_left -= take;
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace optrt::bitio
