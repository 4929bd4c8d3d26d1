#include <gtest/gtest.h>

#include <vector>

#include "engine/partitioner.h"
#include "engine/property_graph.h"

namespace cold::engine {
namespace {

// ---------------------------------------------------------- PropertyGraph --

TEST(PropertyGraphTest, BuildAndAccess) {
  PropertyGraph<double> g(3);
  const VertexId a = 0;
  const VertexId b = 1;
  const VertexId c = 2;
  EdgeId e0 = g.AddEdge(a, b, 1.5);
  EdgeId e1 = g.AddEdge(b, c, 2.5);
  g.AddEdge(a, c, 3.5);
  g.Finalize();

  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_DOUBLE_EQ(g.edge_data(e1), 2.5);
  EXPECT_EQ(g.src(e0), a);
  EXPECT_EQ(g.dst(e0), b);

  EXPECT_EQ(g.out_edges(a).size(), 2u);
  EXPECT_EQ(g.in_edges(c).size(), 2u);
  EXPECT_EQ(g.out_edges(c).size(), 0u);
}

TEST(PropertyGraphTest, PayloadsAreMutable) {
  PropertyGraph<int> g(2);
  EdgeId e = g.AddEdge(0, 1, 7);
  g.Finalize();
  g.edge_data(e) = 43;
  EXPECT_EQ(g.edge_data(e), 43);
}

// ------------------------------------------------------- GreedyAssignment --

TEST(GreedyAssignmentTest, DeterministicInRangeAndCutsLessThanModulo) {
  // Two dense 6-vertex clusters joined by a single bridge edge.
  constexpr int kClusterSize = 6;
  constexpr int kNodes = 2;
  PropertyGraph<int> g(2 * kClusterSize);
  for (int base : {0, kClusterSize}) {
    for (int a = base; a < base + kClusterSize; ++a) {
      for (int b = base; b < base + kClusterSize; ++b) {
        if (a != b) g.AddEdge(a, b, 0);
      }
    }
  }
  g.AddEdge(0, kClusterSize, 0);
  g.Finalize();
  const std::vector<int64_t> work(static_cast<size_t>(g.num_vertices()), 1);

  const std::vector<int> assign = GreedyAssignment(g, kNodes, work);
  EXPECT_EQ(GreedyAssignment(g, kNodes, work), assign);
  ASSERT_EQ(assign.size(), static_cast<size_t>(g.num_vertices()));
  for (int node : assign) {
    EXPECT_GE(node, 0);
    EXPECT_LT(node, kNodes);
  }
  auto count_cuts = [&g](auto node_of) {
    int64_t cuts = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (node_of(g.src(e)) != node_of(g.dst(e))) ++cuts;
    }
    return cuts;
  };
  const int64_t greedy_cuts =
      count_cuts([&](VertexId v) { return assign[static_cast<size_t>(v)]; });
  EXPECT_LT(greedy_cuts, count_cuts([](VertexId v) { return v % kNodes; }));
}

}  // namespace
}  // namespace cold::engine
