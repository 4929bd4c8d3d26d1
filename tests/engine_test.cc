#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "engine/gas_engine.h"
#include "engine/partitioner.h"
#include "engine/property_graph.h"
#include "obs/metrics.h"

namespace cold::engine {
namespace {

// ---------------------------------------------------------- PropertyGraph --

TEST(PropertyGraphTest, BuildAndAccess) {
  PropertyGraph<int, double> g;
  VertexId a = g.AddVertex(10);
  VertexId b = g.AddVertex(20);
  VertexId c = g.AddVertex(30);
  EdgeId e0 = g.AddEdge(a, b, 1.5);
  EdgeId e1 = g.AddEdge(b, c, 2.5);
  g.AddEdge(a, c, 3.5);
  g.Finalize();

  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.vertex_data(b), 20);
  EXPECT_DOUBLE_EQ(g.edge_data(e1), 2.5);
  EXPECT_EQ(g.src(e0), a);
  EXPECT_EQ(g.dst(e0), b);

  EXPECT_EQ(g.out_edges(a).size(), 2u);
  EXPECT_EQ(g.in_edges(c).size(), 2u);
  EXPECT_EQ(g.out_edges(c).size(), 0u);
}

TEST(PropertyGraphTest, PayloadsAreMutable) {
  PropertyGraph<int, int> g;
  VertexId v = g.AddVertex(1);
  EdgeId e = g.AddEdge(v, g.AddVertex(2), 7);
  g.Finalize();
  g.vertex_data(v) = 42;
  g.edge_data(e) = 43;
  EXPECT_EQ(g.vertex_data(v), 42);
  EXPECT_EQ(g.edge_data(e), 43);
}

// ------------------------------------------------------- GreedyAssignment --

TEST(GreedyAssignmentTest, DeterministicInRangeAndCutsLessThanModulo) {
  // Two dense 6-vertex clusters joined by a single bridge edge.
  constexpr int kClusterSize = 6;
  constexpr int kNodes = 2;
  PropertyGraph<int, int> g;
  for (int v = 0; v < 2 * kClusterSize; ++v) g.AddVertex(0);
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

// -------------------------------------------------------------- GasEngine --

// Toy program: gather sums in-degree, apply writes it to the vertex, scatter
// increments a per-edge counter.
struct DegreeProgram {
  using GatherType = int;
  static constexpr GatherEdges kGatherEdges = GatherEdges::kIn;

  GatherType GatherInit() const { return 0; }
  void Gather(const PropertyGraph<int, int>&, VertexId, EdgeId,
              GatherType* acc) const {
    ++*acc;
  }
  void Apply(PropertyGraph<int, int>* g, VertexId v, const GatherType& acc) {
    g->vertex_data(v) = acc;
  }
  void Scatter(PropertyGraph<int, int>* g, EdgeId e, WorkerContext*) {
    g->edge_data(e)++;
  }
  void PostSuperstep(PropertyGraph<int, int>*, int superstep) {
    last_superstep = superstep;
  }

  int last_superstep = -1;
};

PropertyGraph<int, int> MakeChain(int n) {
  PropertyGraph<int, int> g;
  for (int i = 0; i < n; ++i) g.AddVertex(0);
  for (int i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1, 0);
  g.Finalize();
  return g;
}

TEST(GasEngineTest, GatherApplyComputesInDegrees) {
  auto g = MakeChain(5);
  DegreeProgram program;
  GasEngine<int, int, DegreeProgram> engine(&g, &program);
  engine.RunSuperstep();
  EXPECT_EQ(g.vertex_data(0), 0);
  for (int i = 1; i < 5; ++i) EXPECT_EQ(g.vertex_data(i), 1);
}

TEST(GasEngineTest, ScatterTouchesEveryEdgeOncePerSuperstep) {
  auto g = MakeChain(6);
  DegreeProgram program;
  GasEngine<int, int, DegreeProgram> engine(&g, &program);
  engine.Run(3);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(g.edge_data(e), 3);
  }
  EXPECT_EQ(engine.stats().supersteps, 3);
  EXPECT_EQ(program.last_superstep, 2);
}

TEST(GasEngineTest, FusedGatherApplyIsBookedAsGather) {
  // Gather and apply run as one pass over the vertices; its time is booked
  // once, as gather, in both EngineStats and the registry.
  obs::Registry::Enable();
  obs::Registry::Global().Reset();
  auto g = MakeChain(1000);
  DegreeProgram program;
  GasEngine<int, int, DegreeProgram> engine(&g, &program);
  engine.RunSuperstep();
  EXPECT_EQ(engine.stats().apply_seconds, 0.0);
  EXPECT_GT(engine.stats().gather_seconds, 0.0);
  EXPECT_EQ(
      obs::Registry::Global().GetGauge("cold/engine/gather_seconds")->Value(),
      engine.stats().gather_seconds);
}

// Emits one raw RNG draw per edge; used to pin down scatter determinism.
struct RngProgram {
  using GatherType = int;
  static constexpr GatherEdges kGatherEdges = GatherEdges::kNone;
  GatherType GatherInit() const { return 0; }
  void Gather(const PropertyGraph<int, uint32_t>&, VertexId, EdgeId,
              GatherType*) const {}
  void Apply(PropertyGraph<int, uint32_t>*, VertexId, const GatherType&) {}
  void Scatter(PropertyGraph<int, uint32_t>* g, EdgeId e, WorkerContext* ctx) {
    g->edge_data(e) = ctx->sampler->rng().NextU32();
  }
  void PostSuperstep(PropertyGraph<int, uint32_t>*, int) {}
};

TEST(GasEngineTest, ScatterRngIsDeterministicPerWorkerStream) {
  // Two engines with the same seed must produce identical scatter draws.
  auto make = [] {
    PropertyGraph<int, uint32_t> g;
    for (int i = 0; i < 4; ++i) g.AddVertex(0);
    for (int i = 0; i + 1 < 4; ++i) g.AddEdge(i, i + 1, 0);
    g.Finalize();
    return g;
  };
  auto g1 = make();
  auto g2 = make();
  RngProgram p1, p2;
  EngineOptions options;
  options.seed = 99;
  GasEngine<int, uint32_t, RngProgram> e1(&g1, &p1, options);
  GasEngine<int, uint32_t, RngProgram> e2(&g2, &p2, options);
  e1.RunSuperstep();
  e2.RunSuperstep();
  for (EdgeId e = 0; e < g1.num_edges(); ++e) {
    EXPECT_EQ(g1.edge_data(e), g2.edge_data(e));
  }
}

}  // namespace
}  // namespace cold::engine
