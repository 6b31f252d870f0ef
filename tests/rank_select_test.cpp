// PackedSparseArray, the rank structure every compiled fast path reads
// (a membership bit-vector with one rank count per word plus bit-packed
// values), and the branch-free select and value_or the compiled lookups
// pick their answers with, against a naive map. The CSR store the fast
// paths also read is tested in graph_test.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "bitio/bit_vector.hpp"
#include "model/fastpath.hpp"

namespace optrt {
namespace {

using bitio::BitVector;

TEST(PackedSparseArray, MatchesANaiveMapAcrossWordBoundaries) {
  // Every position of seeded masks whose sizes straddle word boundaries,
  // at value widths that do and do not straddle words themselves.
  std::mt19937_64 rng(29);
  for (const std::size_t size : {1u, 63u, 64u, 65u, 127u, 128u, 129u, 700u}) {
    for (const unsigned width : {1u, 7u, 13u, 32u}) {
      BitVector mask(size);
      std::vector<std::uint32_t> values;
      std::vector<std::uint32_t> naive(size, 0);
      for (std::size_t i = 0; i < size; ++i) {
        if (rng() % 3 != 0) continue;
        mask.set(i, true);
        naive[i] = static_cast<std::uint32_t>(
            rng() & ((std::uint64_t{1} << width) - 1));
        values.push_back(naive[i]);
      }
      const model::PackedSparseArray array(mask, values, width);
      ASSERT_EQ(array.size(), size);
      ASSERT_EQ(array.member_count(), values.size());
      for (std::size_t i = 0; i < size; ++i) {
        ASSERT_EQ(array.contains(i), mask.get(i)) << size << "/" << i;
        if (mask.get(i)) {
          ASSERT_EQ(array.value(i), naive[i]) << size << "/" << i;
        }
      }
    }
  }
}

/// The member pattern of one value_or case, over `size` positions.
enum class Pattern { kEmpty, kFull, kEnds, kFirstHalf, kRandom };

BitVector pattern_mask(Pattern pattern, std::size_t size,
                       std::mt19937_64& rng) {
  BitVector mask(size);
  for (std::size_t i = 0; i < size; ++i) {
    bool member = false;
    switch (pattern) {
      case Pattern::kEmpty: member = false; break;
      case Pattern::kFull: member = true; break;
      case Pattern::kEnds: member = i == 0 || i + 1 == size; break;
      // Every position past the last member reads the slack word.
      case Pattern::kFirstHalf: member = i < size / 2; break;
      case Pattern::kRandom: member = rng() % 2 == 0; break;
    }
    mask.set(i, member);
  }
  return mask;
}

TEST(PackedSparseArray, ValueOrMatchesANaiveMapAtEveryPosition) {
  // Every position of tables of 0, 1, 63, 64 (one full word), 65, and 130
  // positions, at every width 0–32: widths that divide 64 never straddle
  // a word, the others do. A non-member must read its fallback, a member
  // its value, whatever the neighbouring words hold.
  std::mt19937_64 rng(31);
  for (const std::size_t size : {0u, 1u, 63u, 64u, 65u, 130u}) {
    for (unsigned width = 0; width <= 32; ++width) {
      for (const Pattern pattern :
           {Pattern::kEmpty, Pattern::kFull, Pattern::kEnds,
            Pattern::kFirstHalf, Pattern::kRandom}) {
        const BitVector mask = pattern_mask(pattern, size, rng);
        const std::uint64_t limit = std::uint64_t{1} << width;
        std::vector<std::uint32_t> values;
        std::vector<std::uint64_t> naive(size, 0);
        for (std::size_t i = 0; i < size; ++i) {
          if (!mask.get(i)) continue;
          naive[i] = rng() & (limit - 1);
          values.push_back(static_cast<std::uint32_t>(naive[i]));
        }
        const model::PackedSparseArray array(mask, values, width);
        for (std::size_t i = 0; i < size; ++i) {
          const std::uint64_t fallback = rng() | limit;  // never a value
          const std::uint64_t want = mask.get(i) ? naive[i] : fallback;
          ASSERT_EQ(array.value_or(i, fallback), want)
              << "size " << size << " width " << width << " pos " << i;
          if (mask.get(i)) {
            ASSERT_EQ(array.value(i), naive[i]);
          }
        }
      }
    }
  }
}

TEST(Select, PicksTheFirstValueOnASetBit) {
  static_assert(model::select(true, 3u, 9u) == 3u);
  static_assert(model::select(false, 3u, 9u) == 9u);
  std::mt19937_64 rng(37);
  for (int trial = 0; trial < 1000; ++trial) {
    const bool bit = rng() % 2 == 0;
    const auto a32 = static_cast<std::uint32_t>(rng());
    const auto b32 = static_cast<std::uint32_t>(rng());
    ASSERT_EQ(model::select(bit, a32, b32), bit ? a32 : b32);
    const std::uint64_t a64 = rng();
    const std::uint64_t b64 = rng();
    ASSERT_EQ(model::select(bit, a64, b64), bit ? a64 : b64);
  }
  // All-ones and zero operands: the mask must cover every bit.
  ASSERT_EQ(model::select(true, ~std::uint64_t{0}, std::uint64_t{0}),
            ~std::uint64_t{0});
  ASSERT_EQ(model::select(false, ~std::uint32_t{0}, std::uint32_t{0}), 0u);
}

TEST(PackedSparseArray, RejectsMisalignedOrOversizedValues) {
  BitVector mask(10);
  mask.set(3, true);
  const std::vector<std::uint32_t> two = {1, 2};
  EXPECT_THROW(model::PackedSparseArray(mask, two, 4), std::invalid_argument);
  const std::vector<std::uint32_t> wide = {16};
  EXPECT_THROW(model::PackedSparseArray(mask, wide, 4), std::invalid_argument);
}

}  // namespace
}  // namespace optrt
