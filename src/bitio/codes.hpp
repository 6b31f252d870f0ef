// Prefix codes used throughout the paper and the proof codecs.
//
// Definition 4 of the paper introduces two self-delimiting codes:
//   x̄  = 1^{|x|} 0 x           with |x̄| = 2|x| + 1            (code "bar")
//   x′ = |x|̄ x                 with |x′| = |x| + 2⌈log(|x|+1)⌉ + 1  ("prime")
// where |x| is the bit length of x. The paper identifies N with {0,1}* by
// the correspondence (0,ε), (1,"0"), (2,"1"), (3,"00"), (4,"01"), … — i.e. a
// natural number n maps to the binary expansion of n+1 with the leading 1
// removed. We implement exactly that correspondence so description lengths
// match the paper's accounting.
//
// Also provided: unary (the Theorem-1 first-table code), fixed width, and
// Elias gamma/delta for general tooling.
#pragma once

#include <cstdint>
#include <string>

#include "bitio/bit_stream.hpp"

namespace optrt::bitio {

/// Bit length |n| of a natural number under the paper's N <-> {0,1}*
/// correspondence: |0| = 0, |1| = |2| = 1, |3|..|6| = 2, ...
/// Equivalently floor(log2(n+1)).
[[nodiscard]] unsigned natural_bit_length(std::uint64_t n) noexcept;

/// The binary-string image of `n` under the correspondence (low bit first
/// in the returned value; natural_bit_length(n) bits are significant).
[[nodiscard]] std::uint64_t natural_to_bits(std::uint64_t n) noexcept;

/// Inverse of natural_to_bits for a `width`-bit string.
[[nodiscard]] std::uint64_t bits_to_natural(std::uint64_t bits,
                                            unsigned width) noexcept;

// --- Definition 4: the "bar" code x̄ = 1^{|x|} 0 x --------------------------

/// Encodes natural `n` as 1^{|x|} 0 x where x is the string image of n.
void write_bar(BitWriter& w, std::uint64_t n);
[[nodiscard]] std::uint64_t read_bar(BitReader& r);
/// Code length 2|x| + 1.
[[nodiscard]] std::size_t bar_length(std::uint64_t n) noexcept;

// --- Definition 4: the shorter "prime" code x′ = |x|̄ x ---------------------

/// Encodes natural `n` as bar(|x|) followed by x.
void write_prime(BitWriter& w, std::uint64_t n);
[[nodiscard]] std::uint64_t read_prime(BitReader& r);
/// Code length |x| + 2|log(|x|+1)| + 1 (exactly, under the correspondence).
[[nodiscard]] std::size_t prime_length(std::uint64_t n) noexcept;

// --- Unary code: n encoded as 1^n 0 (Theorem 1 first table) ----------------

void write_unary(BitWriter& w, std::uint64_t n);
/// Reads up to 64 bits per step. Throws std::out_of_range("BitReader: past
/// end") when the bits end before the terminating zero, as read_bit does.
[[nodiscard]] std::uint64_t read_unary(BitReader& r);
[[nodiscard]] inline std::size_t unary_length(std::uint64_t n) noexcept {
  return static_cast<std::size_t>(n) + 1;
}

// --- Elias gamma / delta ----------------------------------------------------

/// Elias gamma code of n >= 1: floor(log2 n) zeros, then n's binary digits.
void write_elias_gamma(BitWriter& w, std::uint64_t n);
[[nodiscard]] std::uint64_t read_elias_gamma(BitReader& r);
[[nodiscard]] std::size_t elias_gamma_length(std::uint64_t n) noexcept;

/// Elias delta code of n >= 1.
void write_elias_delta(BitWriter& w, std::uint64_t n);
[[nodiscard]] std::uint64_t read_elias_delta(BitReader& r);
[[nodiscard]] std::size_t elias_delta_length(std::uint64_t n) noexcept;

// --- Fixed width ------------------------------------------------------------

/// ⌈log2(n+1)⌉ — the paper's "log n" (footnote 6): bits to write a value in
/// {0..n} at fixed width.
[[nodiscard]] unsigned ceil_log2_plus1(std::uint64_t n) noexcept;

/// ⌈log2 n⌉ for n >= 1; bits to index one of n alternatives.
[[nodiscard]] unsigned ceil_log2(std::uint64_t n) noexcept;

/// ⌈log2 max(n, 2)⌉: the fixed width of a node id among n nodes.
[[nodiscard]] inline unsigned id_width(std::uint64_t n) noexcept {
  return ceil_log2(n < 2 ? 2 : n);
}

/// ⌈log2 max(d, 1)⌉: the fixed width of a port at a node of degree d (no
/// bits at all when d ≤ 1).
[[nodiscard]] inline unsigned port_width(std::uint64_t degree) noexcept {
  return ceil_log2(degree);
}

}  // namespace optrt::bitio
