// PackedSparseArray, the rank structure every compiled fast path reads
// (a membership bit-vector with one rank count per word plus bit-packed
// values), against a naive map. The CSR store the fast paths also read is
// tested in graph_test.
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
