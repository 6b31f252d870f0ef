// BitVector: a growable sequence of bits, the unit of account for every
// routing-function size in this library.
//
// The paper measures the space of a routing scheme as the sum over all nodes
// of the number of bits needed to encode the local routing function (§1).
// Every scheme in src/schemes serializes its local routing functions into
// BitVectors and routes by decoding them, so BitVector::size() is the honest
// space cost.
//
// Storage: bit i lives in words()[i / 64] at bit i % 64 (LSB-first packing),
// and every bit past size() in the last word is zero (the zero-tail
// invariant). Together these make the little-endian bytes of words() the
// LSB-first byte packing of the bits with zero padding — exactly what
// schemes::to_bytes writes and bitio::crc32 checksums — and let append,
// slice and the bit readers move whole words instead of single bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace optrt::bitio {

/// A dynamically sized bit string. Bit 0 is the first bit appended.
class BitVector {
 public:
  BitVector() = default;

  /// Constructs a bit vector of `n` bits, all zero.
  explicit BitVector(std::size_t n) : size_(n), words_((n + 63) / 64, 0) {}

  /// Adopts `words` as the first `n` bits, LSB-first. Throws
  /// std::invalid_argument unless `words` holds exactly ⌈n/64⌉ words and
  /// every bit past `n` is zero.
  BitVector(std::vector<std::uint64_t> words, std::size_t n);

  BitVector(const BitVector&) = default;
  BitVector& operator=(const BitVector&) = default;
  // Moved-from vectors must be empty (size_ is scalar: the default move
  // would leave a nonzero size over vacated storage).
  BitVector(BitVector&& other) noexcept
      : size_(other.size_), words_(std::move(other.words_)) {
    other.size_ = 0;
    other.words_.clear();
  }
  BitVector& operator=(BitVector&& other) noexcept {
    size_ = other.size_;
    words_ = std::move(other.words_);
    other.size_ = 0;
    other.words_.clear();
    return *this;
  }

  /// Parses a string of '0'/'1' characters (useful in tests).
  static BitVector from_string(const std::string& bits);

  /// Number of bits stored.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Reads the bit at `i`. Precondition: i < size().
  [[nodiscard]] bool get(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Sets the bit at `i`. Precondition: i < size().
  void set(std::size_t i, bool value) noexcept {
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (value) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  /// Appends one bit.
  void push_back(bool value) {
    if ((size_ & 63) == 0) words_.push_back(0);
    if (value) words_[size_ >> 6] |= std::uint64_t{1} << (size_ & 63);
    ++size_;
  }

  /// Reads `width` <= 64 bits starting at `pos`, least-significant bit
  /// first. Precondition: pos + width <= size().
  [[nodiscard]] std::uint64_t get_bits(std::size_t pos,
                                       unsigned width) const noexcept {
    if (width == 0) return 0;
    const std::size_t idx = pos >> 6;
    const unsigned off = pos & 63;
    std::uint64_t value = words_[idx] >> off;
    if (off + width > 64) value |= words_[idx + 1] << (64 - off);
    return width == 64 ? value : value & ((std::uint64_t{1} << width) - 1);
  }

  /// Appends the low `width` bits of `value`, least-significant bit first.
  void append_bits(std::uint64_t value, unsigned width);

  /// Appends all bits of `other` (as they were before the call, so
  /// `v.append(v)` doubles `v`).
  void append(const BitVector& other);

  /// Bits [start, start + len) as a new vector. Throws std::out_of_range
  /// if the range runs past size().
  [[nodiscard]] BitVector slice(std::size_t start, std::size_t len) const;

  /// Number of one-bits.
  [[nodiscard]] std::size_t popcount() const noexcept;

  /// Renders as a '0'/'1' string (tests and debugging).
  [[nodiscard]] std::string to_string() const;

  /// Raw 64-bit words: ⌈size()/64⌉ of them, tail bits beyond size() zero.
  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return words_;
  }

  friend bool operator==(const BitVector& a, const BitVector& b) noexcept {
    if (a.size_ != b.size_) return false;
    return a.words_ == b.words_;
  }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace optrt::bitio
