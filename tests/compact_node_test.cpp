// Tests for the Theorem 1 per-node table: build/compile round trips,
// routing correctness of the compiled table, the 6n/7n size bounds, and
// the allocation-free table walk held to the compiled table on every
// layout.
#include <gtest/gtest.h>

#include <exception>
#include <typeinfo>
#include <vector>

#include "bitio/codes.hpp"
#include "core/experiment.hpp"
#include "graph/generators.hpp"
#include "schemes/compact_node.hpp"
#include "schemes/errors.hpp"

namespace optrt::schemes {
namespace {

using graph::Graph;
using graph::Rng;

struct Variant {
  const char* name;
  CompactNodeOptions options;
};

/// The free neighbour list a table is read with: u's sorted neighbours
/// under model II, nothing under IB (the table carries them).
std::vector<graph::NodeId> free_neighbors(const Graph& g, graph::NodeId u,
                                          const CompactNodeOptions& opt) {
  if (opt.include_adjacency) return {};
  const auto nbrs = g.neighbors(u);
  return {nbrs.begin(), nbrs.end()};
}

/// The hop node u's compiled table gives toward `dest`, as the walk
/// answers it: kNoHop toward u itself, dest itself toward a neighbour.
graph::NodeId compiled_hop(const model::PackedSparseArray& table,
                           graph::NodeId u, graph::NodeId dest) {
  if (dest == u) return kNoHop;
  return static_cast<graph::NodeId>(table.value_or(dest, dest));
}

class CompactNodeVariants : public ::testing::TestWithParam<Variant> {};

TEST_P(CompactNodeVariants, CompiledNextHopIsAShortestPathIntermediary) {
  Rng rng(41);
  const Graph g = graph::random_uniform(96, rng);
  const CompactNodeOptions opt = GetParam().options;
  for (graph::NodeId u = 0; u < 12; ++u) {
    const CompactNodeBits bits = build_compact_node(g, u, opt);
    const model::PackedSparseArray table =
        compile_compact_node(bits.bits, 96, u, opt, free_neighbors(g, u, opt));
    EXPECT_FALSE(table.contains(u));
    for (graph::NodeId w = 0; w < 96; ++w) {
      if (w == u) continue;
      const auto hop = static_cast<graph::NodeId>(table.value_or(w, w));
      if (g.has_edge(u, w)) {
        EXPECT_FALSE(table.contains(w));
        EXPECT_EQ(hop, w);
      } else {
        // An intermediary on a length-2 (= shortest) path.
        EXPECT_TRUE(table.contains(w));
        EXPECT_TRUE(g.has_edge(u, hop));
        EXPECT_TRUE(g.has_edge(hop, w));
      }
    }
  }
}

TEST_P(CompactNodeVariants, CompileConsumesFromBitsOnly) {
  // The compiled table must come entirely from the serialized bits (plus
  // free neighbour knowledge): flipping a table-2 index bit changes the
  // compiled table.
  Rng rng(43);
  const Graph g = graph::random_uniform(64, rng);
  const CompactNodeOptions opt = GetParam().options;
  const CompactNodeBits table = build_compact_node(g, 0, opt);
  const auto free = free_neighbors(g, 0, opt);
  const model::PackedSparseArray before =
      compile_compact_node(table.bits, 64, 0, opt, free);
  ASSERT_GT(table.table2_bits, 0u);
  bitio::BitVector tampered = table.bits;
  const std::size_t pos = tampered.size() - 1;  // inside table 2
  tampered.set(pos, !tampered.get(pos));
  // The tampered description either compiles to a different table or is
  // rejected as malformed — never silently identical.
  try {
    const model::PackedSparseArray after =
        compile_compact_node(tampered, 64, 0, opt, free);
    bool differs = false;
    for (graph::NodeId w = 1; w < 64; ++w) {
      differs |= compiled_hop(before, 0, w) != compiled_hop(after, 0, w);
    }
    EXPECT_TRUE(differs);
  } catch (const std::out_of_range&) {
    SUCCEED();
  }
}

TEST_P(CompactNodeVariants, WalkEqualsTheCompiledTableForEveryPair) {
  // The allocation-free walk reads every layout: model IB's adjacency
  // prefix, a greedy cover's stored ranks, either cut.
  Rng rng(1996);
  const Graph g = core::certified_random_graph(96, rng);
  const CompactNodeOptions opt = GetParam().options;
  for (graph::NodeId u = 0; u < 96; ++u) {
    const CompactNodeBits bits = build_compact_node(g, u, opt);
    const auto free = free_neighbors(g, u, opt);
    const model::PackedSparseArray table =
        compile_compact_node(bits.bits, 96, u, opt, free);
    for (graph::NodeId dest = 0; dest < 96; ++dest) {
      ASSERT_EQ(compact_node_next_hop(bits.bits, 96, u, opt, free, dest),
                compiled_hop(table, u, dest))
          << "u=" << u << " dest=" << dest;
    }
  }
}

/// A table damaged so that its compile throws: every walk either answers
/// as the intact table does (it did not read the damage) or throws the
/// compile's exception type, and some destination's walk reads the damage.
void expect_walk_throws_like_compile(const Graph& g, graph::NodeId u,
                                     const CompactNodeOptions& opt,
                                     const bitio::BitVector& intact,
                                     const bitio::BitVector& damaged) {
  const std::size_t n = g.node_count();
  const auto free = free_neighbors(g, u, opt);
  const model::PackedSparseArray before =
      compile_compact_node(intact, n, u, opt, free);
  const std::type_info* compile_threw = nullptr;
  try {
    (void)compile_compact_node(damaged, n, u, opt, free);
  } catch (const std::exception& e) {
    compile_threw = &typeid(e);
  }
  ASSERT_NE(compile_threw, nullptr)
      << "the damage must make the compile throw";
  bool reached = false;
  for (graph::NodeId dest = 0; dest < n; ++dest) {
    try {
      EXPECT_EQ(compact_node_next_hop(damaged, n, u, opt, free, dest),
                compiled_hop(before, u, dest))
          << "dest=" << dest;
    } catch (const std::exception& e) {
      EXPECT_EQ(typeid(e), *compile_threw)
          << "dest=" << dest << ": " << e.what();
      reached = true;
    }
  }
  EXPECT_TRUE(reached);
}

TEST_P(CompactNodeVariants, DamagedTablesThrowTheCompilesTypeFromTheWalk) {
  Rng rng(1996);
  const Graph g = core::certified_random_graph(96, rng);
  const unsigned count_width = bitio::ceil_log2_plus1(96);
  const CompactNodeOptions opt = GetParam().options;
  const graph::NodeId u = 5;
  const bitio::BitVector bits = build_compact_node(g, u, opt).bits;
  const std::size_t header = opt.include_adjacency ? 95 : 0;
  // Truncated: the last table-2 entry loses its last bit.
  expect_walk_throws_like_compile(g, u, opt, bits,
                                  bits.slice(0, bits.size() - 1));
  // Tampered: a center count above u's degree.
  bitio::BitVector wide = bits;
  for (unsigned i = 0; i < count_width; ++i) wide.set(header + i, true);
  expect_walk_throws_like_compile(g, u, opt, bits, wide);
  if (opt.greedy_cover) {
    // Tampered: a stored center rank equal to u's degree, one past the
    // last neighbour, and one of all ones.
    const unsigned rank_width = bitio::ceil_log2(g.degree(u));
    ASSERT_LT(g.degree(u), std::size_t{1} << rank_width);
    for (const std::uint64_t rank :
         {std::uint64_t{g.degree(u)}, (std::uint64_t{1} << rank_width) - 1}) {
      bitio::BitVector bad_rank = bits;
      for (unsigned i = 0; i < rank_width; ++i) {
        bad_rank.set(header + count_width + i, (rank >> i) & 1u);
      }
      expect_walk_throws_like_compile(g, u, opt, bits, bad_rank);
    }
  }
  if (opt.include_adjacency) {
    // Truncated inside the adjacency prefix.
    expect_walk_throws_like_compile(g, u, opt, bits, bits.slice(0, 40));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, CompactNodeVariants,
    ::testing::Values(
        Variant{"paper_ii", CompactNodeOptions{}},
        Variant{"paper_ib", CompactNodeOptions{false, false, true}},
        Variant{"greedy", CompactNodeOptions{true, false, false}},
        Variant{"refined_threshold", CompactNodeOptions{false, true, false}},
        Variant{"greedy_refined_ib", CompactNodeOptions{true, true, true}}),
    [](const ::testing::TestParamInfo<Variant>& info) {
      return info.param.name;
    });

class CompactNodeSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CompactNodeSizes, TheoremOneBoundHolds) {
  const std::size_t n = GetParam();
  Rng rng(1000 + n);
  const Graph g = graph::random_uniform(n, rng);
  for (graph::NodeId u = 0; u < std::min<std::size_t>(n, 16); ++u) {
    // Model II: |F(u)| <= 6n.
    const CompactNodeBits ii = build_compact_node(g, u, {});
    EXPECT_LE(ii.bits.size(), 6 * n) << "n=" << n << " u=" << u;
    // Model IB adds the n−1-bit interconnection vector: <= 7n.
    CompactNodeOptions ib;
    ib.include_adjacency = true;
    EXPECT_LE(build_compact_node(g, u, ib).bits.size(), 7 * n);
    // The refined threshold (paper: "choosing l such that m_l is the first
    // quantity < n/log n shows |F(u)| <= 3n"). We allow slack for the m
    // header and discretisation.
    CompactNodeOptions refined;
    refined.threshold_log = true;
    EXPECT_LE(build_compact_node(g, u, refined).bits.size(), 3 * n + 64);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CompactNodeSizes,
                         ::testing::Values(64, 128, 256, 512));

TEST(CompactNode, UnaryTableStaysLinear) {
  // Claim 1's geometric decay: table 1 <= 4n bits.
  Rng rng(77);
  const std::size_t n = 256;
  const Graph g = graph::random_uniform(n, rng);
  for (graph::NodeId u = 0; u < 8; ++u) {
    const CompactNodeBits table = build_compact_node(g, u, {});
    EXPECT_LE(table.table1_bits, 4 * n);
    EXPECT_LE(table.table2_bits, 2 * n);
  }
}

TEST(CompactNode, ThrowsWhenCoverIncomplete) {
  EXPECT_THROW(build_compact_node(graph::chain(8), 0, {}), SchemeInapplicable);
}

TEST(CompactNode, WorksOnStarCenterAndLeaves) {
  const Graph g = graph::star(10);
  // Centre: all nodes are neighbours; table trivial.
  const CompactNodeBits centre = build_compact_node(g, 0, {});
  const model::PackedSparseArray c =
      compile_compact_node(centre.bits, 10, 0, {}, g.neighbors(0));
  EXPECT_EQ(c.member_count(), 0u);
  for (graph::NodeId w = 1; w < 10; ++w) EXPECT_EQ(c.value_or(w, w), w);
  // Leaf: everything routed via the centre.
  const CompactNodeBits leaf = build_compact_node(g, 3, {});
  const model::PackedSparseArray l =
      compile_compact_node(leaf.bits, 10, 3, {}, g.neighbors(3));
  for (graph::NodeId w = 1; w < 10; ++w) {
    if (w == 3) continue;
    EXPECT_TRUE(l.contains(w));
    EXPECT_EQ(l.value(w), 0u);
  }
}

TEST(CompactNode, GreedyTablesNoLargerThanPaperOrder) {
  Rng rng(78);
  const Graph g = graph::random_uniform(128, rng);
  std::size_t paper_total = 0;
  std::size_t greedy_total = 0;
  for (graph::NodeId u = 0; u < 16; ++u) {
    paper_total += build_compact_node(g, u, {}).bits.size();
    CompactNodeOptions greedy;
    greedy.greedy_cover = true;
    greedy_total += build_compact_node(g, u, greedy).bits.size();
  }
  // Greedy pays for explicit center ranks but needs fewer centers; it
  // should stay within 1.25× of the paper's order either way.
  EXPECT_LT(greedy_total, paper_total * 5 / 4 + 16 * 64);
  EXPECT_LT(paper_total, greedy_total * 5 / 4 + 16 * 64);
}

}  // namespace
}  // namespace optrt::schemes
