// Unit and property tests for the bitio substrate: BitVector, streams,
// prefix codes (Definition 4) and CRC-32. The word-level
// BitVector/BitReader/crc32 paths are checked against a bit-serial
// reference at every word boundary.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "bitio/bit_stream.hpp"
#include "bitio/bit_vector.hpp"
#include "bitio/codes.hpp"
#include "bitio/crc32.hpp"
#include "schemes/serialization.hpp"

namespace optrt::bitio {
namespace {

TEST(BitVector, StartsEmpty) {
  BitVector v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVector, SizedConstructorZeroFills) {
  BitVector v(130);
  EXPECT_EQ(v.size(), 130u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_FALSE(v.get(i));
}

TEST(BitVector, PushBackAndGet) {
  BitVector v;
  v.push_back(true);
  v.push_back(false);
  v.push_back(true);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_TRUE(v.get(0));
  EXPECT_FALSE(v.get(1));
  EXPECT_TRUE(v.get(2));
}

TEST(BitVector, SetClearsAndSets) {
  BitVector v(64);
  v.set(63, true);
  EXPECT_TRUE(v.get(63));
  v.set(63, false);
  EXPECT_FALSE(v.get(63));
}

TEST(BitVector, CrossesWordBoundary) {
  BitVector v;
  for (int i = 0; i < 200; ++i) v.push_back(i % 3 == 0);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(v.get(i), i % 3 == 0) << i;
}

TEST(BitVector, StringRoundTrip) {
  const std::string s = "1101001110101";
  EXPECT_EQ(BitVector::from_string(s).to_string(), s);
}

TEST(BitVector, FromStringRejectsNonBinary) {
  EXPECT_THROW(BitVector::from_string("10x"), std::invalid_argument);
}

TEST(BitVector, AppendBitsLsbFirst) {
  BitVector v;
  v.append_bits(0b1011, 4);
  EXPECT_EQ(v.to_string(), "1101");  // LSB first
}

TEST(BitVector, AppendVector) {
  BitVector a = BitVector::from_string("101");
  a.append(BitVector::from_string("0011"));
  EXPECT_EQ(a.to_string(), "1010011");
}

TEST(BitVector, PopcountAcrossWords) {
  BitVector v(150);
  v.set(0, true);
  v.set(70, true);
  v.set(149, true);
  EXPECT_EQ(v.popcount(), 3u);
}

TEST(BitVector, EqualityIgnoresNothing) {
  BitVector a = BitVector::from_string("101");
  BitVector b = BitVector::from_string("101");
  BitVector c = BitVector::from_string("1010");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(BitStream, WriteReadBits) {
  BitWriter w;
  w.write_bits(0xDEADBEEF, 32);
  w.write_bit(true);
  w.write_bits(42, 7);
  const BitVector bits = w.bits();
  BitReader r(bits);
  EXPECT_EQ(r.read_bits(32), 0xDEADBEEFu);
  EXPECT_TRUE(r.read_bit());
  EXPECT_EQ(r.read_bits(7), 42u);
  EXPECT_TRUE(r.exhausted());
}

TEST(BitStream, ReadPastEndThrows) {
  BitVector v(3);
  BitReader r(v);
  (void)r.read_bits(3);
  EXPECT_THROW((void)r.read_bit(), std::out_of_range);
}

TEST(BitStream, SeekAndPosition) {
  BitVector v = BitVector::from_string("00001111");
  BitReader r(v);
  r.seek(4);
  EXPECT_EQ(r.position(), 4u);
  EXPECT_TRUE(r.read_bit());
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_THROW(r.seek(9), std::out_of_range);
}

TEST(BitVector, SelfAppendAppendsTheOriginalBits) {
  BitVector v = BitVector::from_string("1011");
  v.append(v);
  EXPECT_EQ(v.to_string(), "10111011");
  for (const std::size_t n : {std::size_t{64}, std::size_t{100}}) {
    BitVector w;
    for (std::size_t i = 0; i < n; ++i) w.push_back(i % 3 == 0);
    const std::string once = w.to_string();
    w.append(w);
    EXPECT_EQ(w.to_string(), once + once) << n;
  }
  BitWriter writer;
  writer.write_bits(0b110, 3);
  writer.write_vector(writer.bits());
  EXPECT_EQ(writer.bits().to_string(), "011011");
}

TEST(BitVector, FromWordsEnforcesTheZeroTail) {
  EXPECT_EQ(BitVector({0b101}, 3).to_string(), "101");
  EXPECT_EQ(BitVector({}, 0), BitVector());
  EXPECT_THROW(BitVector({0b1101}, 3), std::invalid_argument);  // bit 3 set
  EXPECT_THROW(BitVector({0, 0}, 64), std::invalid_argument);   // extra word
  EXPECT_THROW(BitVector({}, 1), std::invalid_argument);        // missing word
  EXPECT_EQ(BitVector({~std::uint64_t{0}}, 64).popcount(), 64u);
}

// --- Word-boundary differential: word-level paths vs a bit-serial reference --

/// The reference model: one bool per bit, built and read one bit at a time.
using Bits = std::vector<bool>;

Bits random_bits(std::mt19937_64& rng, std::size_t n) {
  Bits bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = (rng() & 1u) != 0;
  return bits;
}

/// push_back only, so equality with a word-level result also pins the word
/// count and the zero tail (operator== compares words).
BitVector from_model(const Bits& bits) {
  BitVector v;
  for (const bool b : bits) v.push_back(b);
  return v;
}

std::uint64_t model_bits(const Bits& bits, std::size_t pos, unsigned width) {
  std::uint64_t value = 0;
  for (unsigned i = 0; i < width; ++i) {
    if (bits[pos + i]) value |= std::uint64_t{1} << i;
  }
  return value;
}

/// The to_bytes image, byte by byte: 8 little-endian length bytes, then the
/// bits LSB-first with the final byte zero-padded.
std::vector<std::uint8_t> model_bytes(const Bits& bits) {
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(bits.size() >> (8 * i)));
  }
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (i % 8 == 0) bytes.push_back(0);
    if (bits[i]) bytes.back() |= static_cast<std::uint8_t>(1u << (i % 8));
  }
  return bytes;
}

TEST(BitVectorDifferential, AppendBitsEveryWidthFromEveryOffset) {
  std::mt19937_64 rng(1205);
  for (unsigned offset = 0; offset < 64; ++offset) {
    for (unsigned width = 0; width <= 64; ++width) {
      // A second word of prefix exercises appends past the first word.
      for (const std::size_t prefix :
           {std::size_t{offset}, std::size_t{offset} + 64}) {
        Bits model = random_bits(rng, prefix);
        BitVector v = from_model(model);
        const std::uint64_t value = rng();  // junk above `width` is dropped
        v.append_bits(value, width);
        for (unsigned i = 0; i < width; ++i) {
          model.push_back(((value >> i) & 1u) != 0);
        }
        ASSERT_EQ(v, from_model(model))
            << "offset " << offset << " width " << width;
      }
    }
  }
}

TEST(BitVectorDifferential, AppendSliceAndReadVectorRandomLengths) {
  std::mt19937_64 rng(1307);
  for (int trial = 0; trial < 2000; ++trial) {
    const Bits a = random_bits(rng, rng() % 300);
    const Bits b = random_bits(rng, rng() % 300);
    BitVector v = from_model(a);
    v.append(from_model(b));
    Bits joined = a;
    joined.insert(joined.end(), b.begin(), b.end());
    ASSERT_EQ(v, from_model(joined)) << "trial " << trial;

    const std::size_t start = rng() % (joined.size() + 1);
    const std::size_t len = rng() % (joined.size() - start + 1);
    const Bits part(joined.begin() + static_cast<std::ptrdiff_t>(start),
                    joined.begin() + static_cast<std::ptrdiff_t>(start + len));
    ASSERT_EQ(v.slice(start, len), from_model(part)) << "trial " << trial;

    BitReader r(v);
    r.seek(start);
    ASSERT_EQ(r.read_vector(len), from_model(part)) << "trial " << trial;
    EXPECT_EQ(r.position(), start + len);
  }
  const BitVector v(10);
  EXPECT_THROW((void)v.slice(4, 7), std::out_of_range);
  EXPECT_THROW((void)v.slice(11, 0), std::out_of_range);
  EXPECT_EQ(v.slice(10, 0), BitVector());
}

TEST(BitVectorDifferential, ReadBitsAtEveryOffset) {
  std::mt19937_64 rng(1996);
  const Bits model = random_bits(rng, 3 * 64 + 17);
  const BitVector v = from_model(model);
  BitReader r(v);
  for (std::size_t pos = 0; pos <= model.size(); ++pos) {
    for (unsigned width = 0; width <= 64 && pos + width <= model.size();
         ++width) {
      r.seek(pos);
      ASSERT_EQ(r.read_bits(width), model_bits(model, pos, width))
          << "pos " << pos << " width " << width;
      ASSERT_EQ(r.position(), pos + width);
    }
  }
}

TEST(BitVectorDifferential, BytesAndCrcMatchTheBytePacking) {
  // Up to 4,096 bits (512 bytes) every tail shape follows every count of
  // 16-byte blocks, below and above the 64 bytes the PCLMULQDQ kernel
  // needs, so the BitVector overload's block and tail paths both run.
  std::mt19937_64 rng(42);
  for (std::size_t n = 0; n <= 4096; ++n) {
    const Bits model = random_bits(rng, n);
    const BitVector v = from_model(model);
    const std::vector<std::uint8_t> bytes = model_bytes(model);
    ASSERT_EQ(schemes::to_bytes(v), bytes) << n;
    ASSERT_EQ(schemes::from_bytes(bytes), v) << n;
    ASSERT_EQ(crc32(v), crc32(bytes.data(), bytes.size())) << n;
    ASSERT_EQ(crc32(v), detail::crc32_portable(bytes.data(), bytes.size()))
        << n;
  }
}

/// Bit-at-a-time CRC-32 over the reflected polynomial 0xEDB88320, seeded
/// like crc32: the reference the table-driven code is held to.
std::uint32_t bitwise_crc32(const std::uint8_t* data, std::size_t len,
                            std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return ~crc;
}

/// Checks one case three ways: the dispatched kernel, the portable one and
/// the bit-at-a-time reference, over an exact-size heap copy of the bytes
/// so that a read past the end is an ASan report.
::testing::AssertionResult kernels_agree(const std::uint8_t* data,
                                         std::size_t len, std::uint32_t seed) {
  const std::vector<std::uint8_t> exact(data, data + len);
  const std::uint32_t want = bitwise_crc32(exact.data(), len, seed);
  const std::uint32_t dispatched = crc32(exact.data(), len, seed);
  const std::uint32_t portable = detail::crc32_portable(exact.data(), len, seed);
  if (dispatched == want && portable == want) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "length " << len << " seed " << seed << ": reference " << want
         << ", dispatched " << dispatched << ", portable " << portable;
}

TEST(Crc32, MatchesABitAtATimeReference) {
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check, sizeof check), 0xCBF43926u);
  EXPECT_EQ(detail::crc32_portable(check, sizeof check), 0xCBF43926u);
  EXPECT_EQ(bitwise_crc32(check, sizeof check, 0), 0xCBF43926u);

  std::mt19937_64 rng(1996);
  std::vector<std::uint8_t> buffer(16 + 300);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng());
  // Every length against every start alignment of the 16-byte steps.
  for (std::size_t start = 0; start < 16; ++start) {
    for (std::size_t len = 0; len <= 300; ++len) {
      ASSERT_TRUE(kernels_agree(buffer.data() + start, len, 0))
          << "start " << start;
    }
  }
  // A split buffer continues from the first part's value at every split.
  const std::uint8_t* data = buffer.data();
  const std::uint32_t whole = bitwise_crc32(data, 300, 0);
  for (std::size_t split = 0; split <= 300; ++split) {
    ASSERT_EQ(crc32(data + split, 300 - split, crc32(data, split)), whole)
        << "split " << split;
    ASSERT_EQ(detail::crc32_portable(data + split, 300 - split,
                                     detail::crc32_portable(data, split)),
              whole)
        << "split " << split;
  }

  // Seeded random cases up to 64 KiB: lengths log-uniform, so every
  // block count and tail shape of the PCLMULQDQ path comes up, each at a
  // random start and continuing from a random seed.
  std::vector<std::uint8_t> big((64u << 10) + 16);
  for (auto& b : big) b = static_cast<std::uint8_t>(rng());
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t octave = rng() % 17;
    const std::size_t len = rng() % ((std::size_t{1} << octave) + 1);
    const std::size_t start = rng() % 16;
    const auto seed = static_cast<std::uint32_t>(rng());
    ASSERT_TRUE(kernels_agree(big.data() + start, len, seed))
        << "trial " << trial << " start " << start;
  }
  // The serving path's frame sizes: a 4,096-pair request, its reply.
  ASSERT_TRUE(kernels_agree(big.data(), 32768, 0));
  ASSERT_TRUE(kernels_agree(big.data() + 3, 16384, 0));
}

TEST(BitStream, PastEndReadLeavesThePositionUnchanged) {
  const BitVector v(70);
  BitReader r(v);
  (void)r.read_bits(10);
  EXPECT_THROW((void)r.read_bits(61), std::out_of_range);
  EXPECT_EQ(r.position(), 10u);
  EXPECT_THROW((void)r.read_vector(61), std::out_of_range);
  EXPECT_EQ(r.position(), 10u);
  EXPECT_EQ(r.read_bits(60), 0u);
  EXPECT_TRUE(r.exhausted());
  EXPECT_THROW((void)r.read_bits(1), std::out_of_range);
  EXPECT_EQ(r.position(), 70u);
}

// --- The paper's N <-> {0,1}* correspondence --------------------------------

TEST(Codes, NaturalCorrespondenceMatchesPaper) {
  // (0, ε), (1, "0"), (2, "1"), (3, "00"), (4, "01"), (5, "10"), (6, "11").
  EXPECT_EQ(natural_bit_length(0), 0u);
  EXPECT_EQ(natural_bit_length(1), 1u);
  EXPECT_EQ(natural_bit_length(2), 1u);
  EXPECT_EQ(natural_bit_length(3), 2u);
  EXPECT_EQ(natural_bit_length(6), 2u);
  EXPECT_EQ(natural_bit_length(7), 3u);
  // "0" for 1, "1" for 2 (string written MSB-first in string order).
  EXPECT_EQ(natural_to_bits(1) & 1u, 0u);
  EXPECT_EQ(natural_to_bits(2) & 1u, 1u);
}

class NaturalRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NaturalRoundTrip, BitsToNaturalInverts) {
  const std::uint64_t n = GetParam();
  EXPECT_EQ(bits_to_natural(natural_to_bits(n), natural_bit_length(n)), n);
}

INSTANTIATE_TEST_SUITE_P(Values, NaturalRoundTrip,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 17, 100,
                                           1023, 1024, 999999));

class CodeRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodeRoundTrip, BarCode) {
  const std::uint64_t n = GetParam();
  BitWriter w;
  write_bar(w, n);
  EXPECT_EQ(w.bit_count(), bar_length(n));
  BitReader r(w.bits());
  EXPECT_EQ(read_bar(r), n);
  EXPECT_TRUE(r.exhausted());
}

TEST_P(CodeRoundTrip, PrimeCode) {
  const std::uint64_t n = GetParam();
  BitWriter w;
  write_prime(w, n);
  EXPECT_EQ(w.bit_count(), prime_length(n));
  BitReader r(w.bits());
  EXPECT_EQ(read_prime(r), n);
  EXPECT_TRUE(r.exhausted());
}

TEST_P(CodeRoundTrip, Unary) {
  const std::uint64_t n = GetParam();
  if (n > 4096) return;  // unary is linear; skip the huge values
  BitWriter w;
  write_unary(w, n);
  EXPECT_EQ(w.bit_count(), unary_length(n));
  BitReader r(w.bits());
  EXPECT_EQ(read_unary(r), n);
}

TEST_P(CodeRoundTrip, EliasGamma) {
  const std::uint64_t n = GetParam() + 1;  // gamma needs n >= 1
  BitWriter w;
  write_elias_gamma(w, n);
  EXPECT_EQ(w.bit_count(), elias_gamma_length(n));
  BitReader r(w.bits());
  EXPECT_EQ(read_elias_gamma(r), n);
}

TEST_P(CodeRoundTrip, EliasDelta) {
  const std::uint64_t n = GetParam() + 1;
  BitWriter w;
  write_elias_delta(w, n);
  EXPECT_EQ(w.bit_count(), elias_delta_length(n));
  BitReader r(w.bits());
  EXPECT_EQ(read_elias_delta(r), n);
}

INSTANTIATE_TEST_SUITE_P(Values, CodeRoundTrip,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 100,
                                           255, 256, 1000, 65535, 1000000));

TEST(Codes, BarLengthFormula) {
  // |x̄| = 2|x| + 1 (Definition 4).
  for (std::uint64_t n : {0, 1, 5, 100, 5000}) {
    EXPECT_EQ(bar_length(n), 2 * natural_bit_length(n) + 1);
  }
}

TEST(Codes, SelfDelimitingConcatenationParses) {
  // x′ y′ z parses unambiguously — the property Definition 4 is for.
  BitWriter w;
  write_prime(w, 13);
  write_prime(w, 7);
  w.write_bits(0b101, 3);
  BitReader r(w.bits());
  EXPECT_EQ(read_prime(r), 13u);
  EXPECT_EQ(read_prime(r), 7u);
  EXPECT_EQ(r.read_bits(3), 0b101u);
}

TEST(Codes, CeilLog2Values) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2_plus1(0), 0u);
  EXPECT_EQ(ceil_log2_plus1(1), 1u);
  EXPECT_EQ(ceil_log2_plus1(7), 3u);
  EXPECT_EQ(ceil_log2_plus1(8), 4u);
}

}  // namespace
}  // namespace optrt::bitio
