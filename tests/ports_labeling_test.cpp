// Port-assignment (§1 models IA/IB) and labelling (α/β/γ) tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "graph/generators.hpp"
#include "graph/labeling.hpp"
#include "graph/ports.hpp"

namespace optrt::graph {
namespace {

TEST(Ports, SortedAssignmentMapsRankToPort) {
  Rng rng(1);
  const Graph g = random_gnp(30, 0.4, rng);
  const PortAssignment pa = PortAssignment::sorted(g);
  for (NodeId u = 0; u < 30; ++u) {
    const auto nbrs = g.neighbors(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_EQ(pa.neighbor_at(u, static_cast<PortId>(i)), nbrs[i]);
      EXPECT_EQ(pa.port_of(u, nbrs[i]), i);
    }
  }
}

TEST(Ports, RandomAssignmentIsAPermutation) {
  Rng rng(2);
  const Graph g = random_gnp(30, 0.4, rng);
  Rng prng(3);
  const PortAssignment pa = PortAssignment::random(g, prng);
  for (NodeId u = 0; u < 30; ++u) {
    const auto nbrs = g.neighbors(u);
    std::vector<NodeId> seen(pa.ports(u).begin(), pa.ports(u).end());
    std::sort(seen.begin(), seen.end());
    EXPECT_TRUE(std::equal(seen.begin(), seen.end(), nbrs.begin(), nbrs.end()));
    // Inverse consistency.
    for (PortId p = 0; p < nbrs.size(); ++p) {
      EXPECT_EQ(pa.port_of(u, pa.neighbor_at(u, p)), p);
    }
  }
}

TEST(Ports, PortOfNonNeighborThrows) {
  const Graph g = chain(4);
  const PortAssignment pa = PortAssignment::sorted(g);
  EXPECT_THROW((void)pa.port_of(0, 2), std::invalid_argument);
}

TEST(Ports, FromPortMapsValidates) {
  const Graph g = chain(3);  // edges 0-1, 1-2
  // Node 1 has neighbours {0, 2}.
  const PortAssignment swapped =
      PortAssignment::from_port_maps(g, {{1}, {2, 0}, {1}});
  EXPECT_EQ(swapped.neighbor_at(1, 0), 2u);
  EXPECT_EQ(swapped.port_of(1, 0), 1u);
  EXPECT_EQ(swapped.neighbor_at(2, 0), 1u);
  // Wrong degree.
  EXPECT_THROW(PortAssignment::from_port_maps(g, {{1}, {2}, {1}}),
               std::invalid_argument);
  // Not a neighbour.
  EXPECT_THROW(PortAssignment::from_port_maps(g, {{2}, {2, 0}, {1}}),
               std::invalid_argument);
  // Duplicate.
  EXPECT_THROW(PortAssignment::from_port_maps(g, {{1}, {0, 0}, {1}}),
               std::invalid_argument);
}

TEST(Ports, SeededRandomIsReproducible) {
  Rng g1(7);
  const Graph g = random_gnp(20, 0.5, g1);
  Rng a(9), b(9);
  const PortAssignment pa = PortAssignment::random(g, a);
  const PortAssignment pb = PortAssignment::random(g, b);
  for (NodeId u = 0; u < 20; ++u) {
    const auto sa = pa.ports(u);
    const auto sb = pb.ports(u);
    EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin(), sb.end()));
  }
}

TEST(Labeling, IdentityFixesEverything) {
  const Labeling l = Labeling::identity(10);
  for (NodeId u = 0; u < 10; ++u) {
    EXPECT_EQ(l.label_of(u), u);
    EXPECT_EQ(l.node_of(u), u);
  }
}

TEST(Labeling, PermutationInverts) {
  const Labeling l = Labeling::permutation({2, 0, 3, 1});
  EXPECT_EQ(l.label_of(0), 2u);
  EXPECT_EQ(l.node_of(2), 0u);
  for (NodeId u = 0; u < 4; ++u) EXPECT_EQ(l.node_of(l.label_of(u)), u);
}

TEST(Labeling, RejectsNonPermutations) {
  EXPECT_THROW(Labeling::permutation({0, 0, 1}), std::invalid_argument);
  EXPECT_THROW(Labeling::permutation({0, 1, 3}), std::invalid_argument);
}

TEST(ArbitraryLabelsTest, TotalBitsSumsLengths) {
  ArbitraryLabels labels;
  labels.label_of_node.push_back(bitio::BitVector(10));
  labels.label_of_node.push_back(bitio::BitVector(0));
  labels.label_of_node.push_back(bitio::BitVector(25));
  EXPECT_EQ(labels.total_bits(), 35u);
}

}  // namespace
}  // namespace optrt::graph
