#include "bitio/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define OPTRT_CRC32_CLMUL 1
#endif

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

/// Slicing-by-16 over the CRC register `crc` (the caller applies the
/// initial and final inversions).
std::uint32_t portable_update(std::uint32_t crc, const std::uint8_t* data,
                              std::size_t len) noexcept {
  for (; len >= 16; data += 16, len -= 16) {
    crc = fold16(crc, load_le64(data), load_le64(data + 8));
  }
  for (; len > 0; ++data, --len) crc = update(crc, *data);
  return crc;
}

#ifdef OPTRT_CRC32_CLMUL

/// x·k for both 64-bit halves of x against their constants in k, plus the
/// block `next`: one 128-bit fold step.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold128(
    __m128i x, __m128i k, __m128i next) noexcept {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// The PCLMULQDQ kernel over the CRC register `crc`: `len` is a multiple
/// of 16 and at least 64. Four lanes fold 64 bytes per step (constants
/// x^(512±32) mod P, bit-reflected), fold into one lane, take any
/// remaining 16-byte blocks (x^(128±32) mod P), reduce 128 → 64 → 32 bits
/// and finish with a Barrett reduction by P and µ = ⌊x^64 / P⌋.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t clmul_update(
    std::uint32_t crc, const std::uint8_t* data, std::size_t len) noexcept {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  const auto load = [](const std::uint8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };

  __m128i x1 = _mm_xor_si128(load(data),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load(data + 16);
  __m128i x3 = load(data + 32);
  __m128i x4 = load(data + 48);
  for (data += 64, len -= 64; len >= 64; data += 64, len -= 64) {
    x1 = fold128(x1, k1k2, load(data));
    x2 = fold128(x2, k1k2, load(data + 16));
    x3 = fold128(x3, k1k2, load(data + 32));
    x4 = fold128(x4, k1k2, load(data + 48));
  }
  x1 = fold128(x1, k3k4, x2);
  x1 = fold128(x1, k3k4, x3);
  x1 = fold128(x1, k3k4, x4);
  for (; len >= 16; data += 16, len -= 16) x1 = fold128(x1, k3k4, load(data));

  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool cpu_has_clmul() noexcept {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

#endif  // OPTRT_CRC32_CLMUL

/// The dispatched update over the CRC register: whole 16-byte blocks of a
/// 64-byte-or-longer input through PCLMULQDQ when the CPU has it, the rest
/// through slicing-by-16.
std::uint32_t update_bytes(std::uint32_t crc, const std::uint8_t* data,
                           std::size_t len) noexcept {
#ifdef OPTRT_CRC32_CLMUL
  if (len >= 64 && cpu_has_clmul()) {
    const std::size_t blocks = len & ~std::size_t{15};
    crc = clmul_update(crc, data, blocks);
    data += blocks;
    len -= blocks;
  }
#endif
  return portable_update(crc, data, len);
}

}  // namespace

namespace detail {

std::uint32_t crc32_portable(const std::uint8_t* data, std::size_t len,
                             std::uint32_t seed) noexcept {
  return portable_update(seed ^ 0xFFFFFFFFu, data, len) ^ 0xFFFFFFFFu;
}

}  // namespace detail

std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                    std::uint32_t seed) noexcept {
  return update_bytes(seed ^ 0xFFFFFFFFu, data, len) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const BitVector& bits) noexcept {
  // Bit length first: distinguishes strings that pack to equal bytes.
  std::uint32_t crc = fold8(0xFFFFFFFFu, bits.size());
  // LSB-first packing with zero padding is the little-endian byte image of
  // the words (the BitVector zero-tail invariant), cut at ⌈n/8⌉ bytes.
  const std::vector<std::uint64_t>& words = bits.words();
  if constexpr (std::endian::native == std::endian::little) {
    return update_bytes(crc, reinterpret_cast<const std::uint8_t*>(words.data()),
                        (bits.size() + 7) / 8) ^
           0xFFFFFFFFu;
  }
  // Elsewhere whole words go in as lanes, the last partial word byte-wise.
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
