// Sequential bit readers/writers over BitVector.
//
// BitWriter builds descriptions (routing functions, proof codecs); BitReader
// consumes them. Readers throw std::out_of_range when a description is
// exhausted — a malformed description is a logic error in this library, not
// an expected input condition.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "bitio/bit_vector.hpp"

namespace optrt::bitio {

/// Appends bits to an owned BitVector.
class BitWriter {
 public:
  BitWriter() = default;

  void write_bit(bool b) { bits_.push_back(b); }

  /// Writes the low `width` bits of `value`, least-significant first.
  void write_bits(std::uint64_t value, unsigned width) {
    bits_.append_bits(value, width);
  }

  void write_vector(const BitVector& v) { bits_.append(v); }

  [[nodiscard]] std::size_t bit_count() const noexcept { return bits_.size(); }

  /// Takes the accumulated bits; the writer is left empty.
  [[nodiscard]] BitVector take() { return std::move(bits_); }

  [[nodiscard]] const BitVector& bits() const noexcept { return bits_; }

 private:
  BitVector bits_;
};

/// Reads bits sequentially from a BitVector it does not own.
class BitReader {
 public:
  explicit BitReader(const BitVector& bits) : bits_(&bits) {}

  [[nodiscard]] bool read_bit() {
    if (pos_ >= bits_->size()) throw std::out_of_range("BitReader: past end");
    return bits_->get(pos_++);
  }

  /// Reads `width` bits, least-significant first. A read past the end
  /// throws before the position moves.
  [[nodiscard]] std::uint64_t read_bits(unsigned width) {
    if (width > 64) throw std::invalid_argument("read_bits: width > 64");
    if (width > remaining()) throw std::out_of_range("BitReader: past end");
    const std::uint64_t value = bits_->get_bits(pos_, width);
    pos_ += width;
    return value;
  }

  /// Reads the next `len` bits as a vector (bounds-checked before any
  /// allocation; a read past the end throws before the position moves).
  [[nodiscard]] BitVector read_vector(std::size_t len) {
    if (len > remaining()) throw std::out_of_range("BitReader: past end");
    BitVector v = bits_->slice(pos_, len);
    pos_ += len;
    return v;
  }

  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bits_->size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ >= bits_->size(); }

  /// Jumps to absolute bit offset `pos`.
  void seek(std::size_t pos) {
    if (pos > bits_->size()) throw std::out_of_range("BitReader::seek past end");
    pos_ = pos;
  }

 private:
  const BitVector* bits_;
  std::size_t pos_ = 0;
};

}  // namespace optrt::bitio
