#include "bitio/bit_vector.hpp"

#include <bit>
#include <stdexcept>
#include <utility>

namespace optrt::bitio {

namespace {

constexpr std::size_t word_count(std::size_t bits) noexcept {
  return (bits + 63) / 64;
}

/// The low `bits` bits of a word set (bits in [1, 63]).
constexpr std::uint64_t low_mask(unsigned bits) noexcept {
  return (std::uint64_t{1} << bits) - 1;
}

}  // namespace

BitVector::BitVector(std::vector<std::uint64_t> words, std::size_t n)
    : size_(n), words_(std::move(words)) {
  if (words_.size() != word_count(n)) {
    throw std::invalid_argument("BitVector: word count does not match n");
  }
  if ((n & 63) != 0 && (words_.back() & ~low_mask(n & 63)) != 0) {
    throw std::invalid_argument("BitVector: nonzero bits past n");
  }
}

BitVector BitVector::from_string(const std::string& bits) {
  BitVector v;
  for (char c : bits) {
    if (c == '0') {
      v.push_back(false);
    } else if (c == '1') {
      v.push_back(true);
    } else {
      throw std::invalid_argument("BitVector::from_string: expected '0' or '1'");
    }
  }
  return v;
}

void BitVector::append_bits(std::uint64_t value, unsigned width) {
  if (width > 64) throw std::invalid_argument("append_bits: width > 64");
  if (width == 0) return;
  if (width < 64) value &= low_mask(width);
  const unsigned off = size_ & 63;
  if (off == 0) {
    words_.push_back(value);
  } else {
    words_.back() |= value << off;
    if (off + width > 64) words_.push_back(value >> (64 - off));
  }
  size_ += width;
}

void BitVector::append(const BitVector& other) {
  if (&other == this) {
    const BitVector copy = other;
    append(copy);
    return;
  }
  if (other.size_ == 0) return;
  const unsigned off = size_ & 63;
  const std::size_t total = size_ + other.size_;
  if (off == 0) {
    words_.insert(words_.end(), other.words_.begin(), other.words_.end());
  } else {
    for (const std::uint64_t w : other.words_) {
      words_.back() |= w << off;
      words_.push_back(w >> (64 - off));
    }
    // The last pushed word holds only zero tail bits when other's tail
    // fitted into the word before it.
    words_.resize(word_count(total));
  }
  size_ = total;
}

BitVector BitVector::slice(std::size_t start, std::size_t len) const {
  if (start > size_ || len > size_ - start) {
    throw std::out_of_range("BitVector::slice past end");
  }
  BitVector out;
  out.size_ = len;
  out.words_.resize(word_count(len));
  const std::size_t first = start >> 6;
  const unsigned off = start & 63;
  for (std::size_t i = 0; i < out.words_.size(); ++i) {
    std::uint64_t w = words_[first + i] >> off;
    if (off != 0 && first + i + 1 < words_.size()) {
      w |= words_[first + i + 1] << (64 - off);
    }
    out.words_[i] = w;
  }
  if ((len & 63) != 0) out.words_.back() &= low_mask(len & 63);
  return out;
}

std::size_t BitVector::popcount() const noexcept {
  std::size_t total = 0;
  for (std::uint64_t w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

std::string BitVector::to_string() const {
  std::string s;
  s.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) s.push_back(get(i) ? '1' : '0');
  return s;
}

}  // namespace optrt::bitio
