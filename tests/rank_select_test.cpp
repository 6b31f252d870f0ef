// RankSelect against a naive bit-scan oracle — exhaustively on every
// bit-vector up to length 20, then on seeded large vectors spanning the
// block-boundary edge cases — plus the two other primitives the compiled
// fast paths rely on: PackedSparseArray against a naive map, and the
// CSR-vs-adjacency equivalence.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <vector>

#include "bitio/bit_vector.hpp"
#include "bitio/rank_select.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/ports.hpp"
#include "model/fastpath.hpp"

namespace optrt {
namespace {

using bitio::BitVector;
using bitio::RankSelect;

/// Checks every rank and select query on `bits` against a linear scan.
void check_against_naive(const BitVector& bits) {
  const RankSelect rs(bits);
  ASSERT_EQ(rs.size(), bits.size());
  std::size_t ones = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    ASSERT_EQ(rs.rank1(i), ones) << "rank1 at " << i << " of " << bits.size();
    ASSERT_EQ(rs.rank0(i), i - ones);
    ASSERT_EQ(rs.get(i), bits.get(i));
    if (bits.get(i)) {
      ASSERT_EQ(rs.select1(ones), i) << "select1(" << ones << ")";
      ++ones;
    } else {
      ASSERT_EQ(rs.select0(i - ones), i) << "select0(" << (i - ones) << ")";
    }
  }
  ASSERT_EQ(rs.rank1(bits.size()), ones);
  ASSERT_EQ(rs.ones(), ones);
  ASSERT_EQ(rs.zeros(), bits.size() - ones);
}

TEST(RankSelect, ExhaustiveAllVectorsUpToLength20) {
  for (std::size_t len = 0; len <= 20; ++len) {
    const std::uint64_t limit = std::uint64_t{1} << len;
    for (std::uint64_t pattern = 0; pattern < limit; ++pattern) {
      BitVector bits(len);
      for (std::size_t i = 0; i < len; ++i) {
        if ((pattern >> i) & 1u) bits.set(i, true);
      }
      const RankSelect rs(bits);
      // Full per-position oracle on every vector would dominate the run;
      // rank at every position plus select at every answer is complete
      // coverage of both directions.
      std::size_t ones = 0;
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(rs.rank1(i), ones)
            << "len=" << len << " pattern=" << pattern << " i=" << i;
        if (bits.get(i)) {
          ASSERT_EQ(rs.select1(ones), i);
          ++ones;
        } else {
          ASSERT_EQ(rs.select0(i - ones), i);
        }
      }
      ASSERT_EQ(rs.rank1(len), ones);
    }
  }
}

TEST(RankSelect, SeededLargeVectorsIncludingBlockBoundaries) {
  // Lengths straddling the 512-bit block and the 512-one select-sample
  // boundaries; densities from nearly empty to nearly full.
  const std::size_t lengths[] = {63,   64,   65,   511,  512,  513,
                                 1023, 1024, 4095, 4096, 4097, 10000};
  const double densities[] = {0.01, 0.5, 0.99};
  std::mt19937_64 rng(1996);
  for (const std::size_t len : lengths) {
    for (const double p : densities) {
      BitVector bits(len);
      std::bernoulli_distribution coin(p);
      for (std::size_t i = 0; i < len; ++i) {
        if (coin(rng)) bits.set(i, true);
      }
      check_against_naive(bits);
    }
  }
}

TEST(RankSelect, AllZerosAndAllOnes) {
  for (const std::size_t len : {0u, 1u, 511u, 512u, 513u, 2048u}) {
    BitVector zeros(len);
    check_against_naive(zeros);
    BitVector ones(len);
    for (std::size_t i = 0; i < len; ++i) ones.set(i, true);
    check_against_naive(ones);
  }
}

TEST(RankSelect, OutOfRangeQueriesThrow) {
  BitVector bits(100);
  for (std::size_t i = 0; i < 100; i += 3) bits.set(i, true);
  const RankSelect rs(bits);
  EXPECT_THROW((void)rs.rank1(101), std::out_of_range);
  EXPECT_THROW((void)rs.rank0(101), std::out_of_range);
  EXPECT_THROW((void)rs.select1(rs.ones()), std::out_of_range);
  EXPECT_THROW((void)rs.select0(rs.zeros()), std::out_of_range);
  const RankSelect empty{BitVector{}};
  EXPECT_EQ(empty.rank1(0), 0u);
  EXPECT_THROW((void)empty.select1(0), std::out_of_range);
  EXPECT_THROW((void)empty.select0(0), std::out_of_range);
}

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

TEST(CsrGraph, EquivalentToAdjacencyOnRandomGraphs) {
  std::mt19937_64 seed_rng(777);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 2 + seed_rng() % 48;
    graph::Rng rng(seed_rng());
    const graph::Graph g = graph::random_gnp(n, 0.3, rng);
    const graph::CsrGraph csr(g);
    ASSERT_EQ(csr.node_count(), n);
    std::size_t arcs = 0;
    for (graph::NodeId u = 0; u < n; ++u) {
      ASSERT_EQ(csr.degree(u), g.degree(u));
      const auto nbrs = csr.neighbors(u);
      ASSERT_EQ(nbrs.size(), g.degree(u));
      for (std::size_t p = 0; p < nbrs.size(); ++p) {
        ASSERT_EQ(nbrs[p], csr.neighbor_at(u, static_cast<graph::PortId>(p)));
        ASSERT_TRUE(g.has_edge(u, nbrs[p]));
        // arc_index inverts neighbor_at: it names this arc's flat slot.
        ASSERT_EQ(csr.arc_index(u, nbrs[p]), csr.arc_begin(u) + p);
      }
      arcs += nbrs.size();
      for (graph::NodeId v = 0; v < n; ++v) {
        ASSERT_EQ(csr.has_edge(u, v), g.has_edge(u, v));
        ASSERT_EQ(csr.arc_index(u, v) != graph::CsrGraph::kNoArc,
                  g.has_edge(u, v));
      }
    }
    ASSERT_EQ(csr.arc_count(), arcs);
    // The port-order builder agrees with the adjacency builder when ports
    // are assigned in sorted order (the repo's standard assignment).
    const auto from_ports =
        graph::CsrGraph::from_ports(graph::PortAssignment::sorted(g));
    for (graph::NodeId u = 0; u < n; ++u) {
      const auto a = csr.neighbors(u);
      const auto b = from_ports.neighbors(u);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    }
  }
}

}  // namespace
}  // namespace optrt
