#include "bitio/codes.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace optrt::bitio {

unsigned natural_bit_length(std::uint64_t n) noexcept {
  // floor(log2(n+1)); n+1 never overflows to 0 for n < 2^64-1, and the
  // library never encodes naturals that large.
  return static_cast<unsigned>(std::bit_width(n + 1) - 1);
}

std::uint64_t natural_to_bits(std::uint64_t n) noexcept {
  // The string image of n is the binary expansion of n+1 minus the leading 1.
  const unsigned len = natural_bit_length(n);
  const std::uint64_t m = n + 1;
  // Take the low `len` bits of m; reverse so the most significant string
  // character comes first when written LSB-first.
  std::uint64_t out = 0;
  for (unsigned i = 0; i < len; ++i) {
    const bool bit = (m >> (len - 1 - i)) & 1u;
    out |= static_cast<std::uint64_t>(bit) << i;
  }
  return out;
}

std::uint64_t bits_to_natural(std::uint64_t bits, unsigned width) noexcept {
  std::uint64_t m = 1;
  for (unsigned i = 0; i < width; ++i) {
    m = (m << 1) | ((bits >> i) & 1u);
  }
  return m - 1;
}

void write_bar(BitWriter& w, std::uint64_t n) {
  const unsigned len = natural_bit_length(n);
  for (unsigned i = 0; i < len; ++i) w.write_bit(true);
  w.write_bit(false);
  w.write_bits(natural_to_bits(n), len);
}

std::uint64_t read_bar(BitReader& r) {
  unsigned len = 0;
  while (r.read_bit()) ++len;
  const std::uint64_t bits = r.read_bits(len);
  return bits_to_natural(bits, len);
}

std::size_t bar_length(std::uint64_t n) noexcept {
  return 2 * static_cast<std::size_t>(natural_bit_length(n)) + 1;
}

void write_prime(BitWriter& w, std::uint64_t n) {
  const unsigned len = natural_bit_length(n);
  write_bar(w, len);
  w.write_bits(natural_to_bits(n), len);
}

std::uint64_t read_prime(BitReader& r) {
  const auto len = static_cast<unsigned>(read_bar(r));
  const std::uint64_t bits = r.read_bits(len);
  return bits_to_natural(bits, len);
}

std::size_t prime_length(std::uint64_t n) noexcept {
  const unsigned len = natural_bit_length(n);
  return bar_length(len) + len;
}

void write_unary(BitWriter& w, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) w.write_bit(true);
  w.write_bit(false);
}

std::uint64_t read_unary(BitReader& r) {
  // The code's ones are the trailing ones of the next <= 64 bits, a word
  // at a time; the reader then moves just past the terminating zero.
  std::uint64_t n = 0;
  for (;;) {
    const std::size_t at = r.position();
    const auto chunk =
        static_cast<unsigned>(std::min<std::size_t>(r.remaining(), 64));
    if (chunk == 0) throw std::out_of_range("BitReader: past end");
    const auto ones =
        static_cast<unsigned>(std::countr_one(r.read_bits(chunk)));
    if (ones < chunk) {
      r.seek(at + ones + 1);
      return n + ones;
    }
    n += chunk;
  }
}

void write_elias_gamma(BitWriter& w, std::uint64_t n) {
  // n >= 1. N = floor(log2 n) zeros, then the N+1 binary digits of n
  // (most significant first).
  const unsigned digits = static_cast<unsigned>(std::bit_width(n));
  for (unsigned i = 0; i + 1 < digits; ++i) w.write_bit(false);
  for (unsigned i = digits; i-- > 0;) w.write_bit((n >> i) & 1u);
}

std::uint64_t read_elias_gamma(BitReader& r) {
  unsigned zeros = 0;
  while (!r.read_bit()) ++zeros;
  std::uint64_t n = 1;
  for (unsigned i = 0; i < zeros; ++i) n = (n << 1) | r.read_bit();
  return n;
}

std::size_t elias_gamma_length(std::uint64_t n) noexcept {
  return 2 * static_cast<std::size_t>(std::bit_width(n)) - 1;
}

void write_elias_delta(BitWriter& w, std::uint64_t n) {
  const unsigned digits = static_cast<unsigned>(std::bit_width(n));
  write_elias_gamma(w, digits);
  for (unsigned i = digits - 1; i-- > 0;) w.write_bit((n >> i) & 1u);
}

std::uint64_t read_elias_delta(BitReader& r) {
  const auto digits = static_cast<unsigned>(read_elias_gamma(r));
  std::uint64_t n = 1;
  for (unsigned i = 0; i + 1 < digits; ++i) n = (n << 1) | r.read_bit();
  return n;
}

std::size_t elias_delta_length(std::uint64_t n) noexcept {
  const unsigned digits = static_cast<unsigned>(std::bit_width(n));
  return elias_gamma_length(digits) + digits - 1;
}

unsigned ceil_log2_plus1(std::uint64_t n) noexcept {
  return static_cast<unsigned>(std::bit_width(n));
}

unsigned ceil_log2(std::uint64_t n) noexcept {
  if (n <= 1) return 0;
  return static_cast<unsigned>(std::bit_width(n - 1));
}

}  // namespace optrt::bitio
