#include "core/advanced_search.h"

#include <gtest/gtest.h>

#include "graph/grid_generator.h"
#include "graph/road_map_generator.h"
#include "util/random.h"

namespace atis::core {
namespace {

using graph::Graph;
using graph::GridCostModel;
using graph::GridGraphGenerator;
using graph::NodeId;
using graph::ReverseOf;

Graph RandomGeometric(uint64_t seed, size_t n = 80) {
  Rng rng(seed);
  Graph g;
  for (size_t i = 0; i < n; ++i) {
    g.AddNode(rng.UniformDouble(0, 10), rng.UniformDouble(0, 10));
  }
  for (size_t i = 0; i < n; ++i) {
    const NodeId u = static_cast<NodeId>(i);
    const NodeId v = static_cast<NodeId>((i + 1) % n);
    EXPECT_TRUE(g.AddUndirectedEdge(u, v, g.EuclideanDistance(u, v) + 0.01)
                    .ok());
  }
  for (size_t i = 0; i < 4 * n; ++i) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(uint64_t{n}));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(uint64_t{n}));
    if (u == v) continue;
    EXPECT_TRUE(g.AddEdge(u, v, g.EuclideanDistance(u, v) +
                                    rng.UniformDouble(0.01, 1.0))
                    .ok());
  }
  return g;
}

// ---------------------------------------------------------------------------
// Weighted A* : the optimality/speed tradeoff (paper Section 6).

class WeightedAStarProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WeightedAStarProperty, CostBoundedByWeightTimesOptimal) {
  const Graph g = RandomGeometric(GetParam());
  auto eu = MakeEstimator(EstimatorKind::kEuclidean);
  const NodeId d = static_cast<NodeId>(g.num_nodes() - 1);
  const double optimal = DijkstraSearch(g, 0, d).cost;
  for (const double w : {1.0, 1.2, 1.5, 2.0, 5.0}) {
    const auto r = WeightedAStarSearch(g, 0, d, *eu, w);
    ASSERT_TRUE(r.found);
    EXPECT_GE(r.cost, optimal - 1e-9);
    EXPECT_LE(r.cost, w * optimal + 1e-9)
        << "weight " << w << " violated its suboptimality bound";
  }
}

TEST_P(WeightedAStarProperty, HigherWeightNeverImprovesCost) {
  const Graph g = RandomGeometric(GetParam() + 100);
  auto eu = MakeEstimator(EstimatorKind::kEuclidean);
  const NodeId d = static_cast<NodeId>(g.num_nodes() / 2);
  const auto exact = WeightedAStarSearch(g, 0, d, *eu, 1.0);
  const auto greedy = WeightedAStarSearch(g, 0, d, *eu, 3.0);
  EXPECT_LE(exact.cost, greedy.cost + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedAStarProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

TEST(WeightedAStarTest, WeightOneIsPlainAStar) {
  auto g = GridGraphGenerator::Generate({10, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  auto man = MakeEstimator(EstimatorKind::kManhattan);
  const auto q = GridGraphGenerator::DiagonalQuery(10);
  const auto plain = AStarSearch(*g, q.source, q.destination, *man);
  const auto weighted =
      WeightedAStarSearch(*g, q.source, q.destination, *man, 1.0);
  EXPECT_EQ(weighted.stats.iterations, plain.stats.iterations);
  EXPECT_NEAR(weighted.cost, plain.cost, 1e-12);
  EXPECT_TRUE(weighted.optimality_guaranteed);
}

TEST(WeightedAStarTest, LargeWeightShrinksSearchOnVarianceGrid) {
  // The regime the paper's conclusion points at: trade a bounded amount
  // of optimality for a large reduction in nodes examined.
  auto g = GridGraphGenerator::Generate({30, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  auto man = MakeEstimator(EstimatorKind::kManhattan);
  const auto q = GridGraphGenerator::DiagonalQuery(30);
  const auto exact =
      WeightedAStarSearch(*g, q.source, q.destination, *man, 1.0);
  const auto fast =
      WeightedAStarSearch(*g, q.source, q.destination, *man, 2.0);
  EXPECT_FALSE(fast.optimality_guaranteed);
  // Paper-scale effect: ~15x fewer expansions for ~2% extra cost here.
  EXPECT_LT(fast.stats.nodes_expanded * 5, exact.stats.nodes_expanded);
  EXPECT_LE(fast.cost, 1.1 * exact.cost);
}

TEST(WeightedAStarTest, ZeroWeightDegradesToDijkstraCost) {
  auto g = GridGraphGenerator::Generate({8, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  auto man = MakeEstimator(EstimatorKind::kManhattan);
  const auto q = GridGraphGenerator::DiagonalQuery(8);
  const auto r =
      WeightedAStarSearch(*g, q.source, q.destination, *man, 0.0);
  const auto dj = DijkstraSearch(*g, q.source, q.destination);
  EXPECT_NEAR(r.cost, dj.cost, 1e-12);
}

// ---------------------------------------------------------------------------
// Bidirectional Dijkstra.

class BidirectionalProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BidirectionalProperty, MatchesDijkstraCost) {
  const Graph g = RandomGeometric(GetParam());
  const Graph rev = ReverseOf(g);
  Rng rng(GetParam() * 77);
  for (int trial = 0; trial < 10; ++trial) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    const NodeId d = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    const auto uni = DijkstraSearch(g, s, d);
    const auto bi = BidirectionalDijkstra(g, rev, s, d);
    ASSERT_EQ(bi.found, uni.found);
    if (uni.found) {
      EXPECT_NEAR(bi.cost, uni.cost, 1e-9);
      // The returned path must be drivable and cost what it claims.
      double total = 0.0;
      for (size_t i = 0; i + 1 < bi.path.size(); ++i) {
        double best = 1e300;
        for (const graph::Edge& e : g.Neighbors(bi.path[i])) {
          if (e.to == bi.path[i + 1]) best = std::min(best, e.cost);
        }
        ASSERT_LT(best, 1e299);
        total += best;
      }
      EXPECT_NEAR(total, bi.cost, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BidirectionalProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

TEST(BidirectionalTest, ExpandsFewerNodesOnLongGridQueries) {
  auto g = GridGraphGenerator::Generate({30, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  const auto q = GridGraphGenerator::DiagonalQuery(30);
  const auto uni = DijkstraSearch(*g, q.source, q.destination);
  const auto bi = BidirectionalDijkstra(*g, q.source, q.destination);
  ASSERT_TRUE(bi.found);
  EXPECT_NEAR(bi.cost, uni.cost, 1e-9);
  EXPECT_LT(bi.stats.nodes_expanded, uni.stats.nodes_expanded);
}

TEST(BidirectionalTest, SourceEqualsDestination) {
  auto g = GridGraphGenerator::Generate({5, GridCostModel::kUniform});
  ASSERT_TRUE(g.ok());
  const auto r = BidirectionalDijkstra(*g, 7, 7);
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.cost, 0.0);
  EXPECT_EQ(r.path, std::vector<NodeId>{7});
}

TEST(BidirectionalTest, UnreachableDestination) {
  Graph g;
  g.AddNode(0, 0);
  g.AddNode(1, 0);
  g.AddNode(5, 5);
  ASSERT_TRUE(g.AddEdge(0, 1, 1).ok());
  const auto r = BidirectionalDijkstra(g, 0, 2);
  EXPECT_FALSE(r.found);
}

TEST(BidirectionalTest, RespectsOneWayEdges) {
  Graph g;
  g.AddNode(0, 0);
  g.AddNode(1, 0);
  g.AddNode(2, 0);
  ASSERT_TRUE(g.AddEdge(0, 1, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2, 1).ok());
  ASSERT_TRUE(g.AddEdge(2, 0, 10).ok());
  const auto fwd = BidirectionalDijkstra(g, 0, 2);
  ASSERT_TRUE(fwd.found);
  EXPECT_DOUBLE_EQ(fwd.cost, 2.0);
  const auto back = BidirectionalDijkstra(g, 2, 0);
  ASSERT_TRUE(back.found);
  EXPECT_DOUBLE_EQ(back.cost, 10.0);
}

TEST(BidirectionalTest, WorksOnDirectedRoadMap) {
  auto rm = graph::GenerateMinneapolisLike();
  ASSERT_TRUE(rm.ok());
  const Graph rev = ReverseOf(rm->graph);
  const auto uni = DijkstraSearch(rm->graph, rm->a, rm->b);
  const auto bi = BidirectionalDijkstra(rm->graph, rev, rm->a, rm->b);
  ASSERT_TRUE(bi.found);
  EXPECT_NEAR(bi.cost, uni.cost, 1e-9);
  EXPECT_LT(bi.stats.nodes_expanded, uni.stats.nodes_expanded);
}

TEST(BidirectionalTest, MismatchedReverseGraphRejected) {
  Graph g;
  g.AddNode(0, 0);
  g.AddNode(1, 0);
  ASSERT_TRUE(g.AddEdge(0, 1, 1).ok());
  Graph wrong;  // wrong node count
  wrong.AddNode(0, 0);
  const auto r = BidirectionalDijkstra(g, wrong, 0, 1);
  EXPECT_FALSE(r.found);
}

}  // namespace
}  // namespace atis::core
