#include "core/sssp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/memory_search.h"
#include "graph/grid_generator.h"
#include "util/random.h"

namespace atis::core {
namespace {

using graph::Graph;
using graph::GridCostModel;
using graph::GridGraphGenerator;
using graph::NodeId;

TEST(SsspTest, UnknownSourceRejected) {
  Graph g;
  g.AddNode(0, 0);
  EXPECT_TRUE(SingleSourceDijkstra(g, 5).status().IsInvalidArgument());
}

TEST(SsspTest, SingleNodeGraph) {
  Graph g;
  g.AddNode(0, 0);
  auto tree = SingleSourceDijkstra(g, 0);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->Distance(0), 0.0);
  EXPECT_EQ(tree->PathTo(0), std::vector<NodeId>{0});
}

TEST(SsspTest, DistancesMatchSinglePairRuns) {
  auto g = GridGraphGenerator::Generate({8, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  auto tree = SingleSourceDijkstra(*g, 0);
  ASSERT_TRUE(tree.ok());
  for (NodeId d : {NodeId{5}, NodeId{27}, NodeId{63}}) {
    const auto pair = DijkstraSearch(*g, 0, d);
    EXPECT_NEAR(tree->Distance(d), pair.cost, 1e-12);
    EXPECT_EQ(tree->PathTo(d), pair.path);
  }
}

TEST(SsspTest, UnreachableNodesMarked) {
  Graph g;
  g.AddNode(0, 0);
  g.AddNode(1, 0);
  g.AddNode(5, 5);
  ASSERT_TRUE(g.AddEdge(0, 1, 1).ok());
  auto tree = SingleSourceDijkstra(g, 0);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->Reaches(1));
  EXPECT_FALSE(tree->Reaches(2));
  EXPECT_TRUE(std::isinf(tree->Distance(2)));
  EXPECT_TRUE(tree->PathTo(2).empty());
}

TEST(SsspTest, PathToReconstructsValidRoutes) {
  auto g = GridGraphGenerator::Generate({6, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  auto tree = SingleSourceDijkstra(*g, 0);
  ASSERT_TRUE(tree.ok());
  for (NodeId d = 0; d < 36; ++d) {
    const auto path = tree->PathTo(d);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), 0);
    EXPECT_EQ(path.back(), d);
    double cost = 0.0;
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      cost += *g->EdgeCost(path[i], path[i + 1]);
    }
    EXPECT_NEAR(cost, tree->Distance(d), 1e-12);
  }
}

TEST(SsspTest, DistancesSymmetricOnUndirectedGraph) {
  auto g = GridGraphGenerator::Generate({5, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  std::vector<ShortestPathTree> trees;
  for (NodeId s = 0; s < 25; ++s) {
    auto tree = SingleSourceDijkstra(*g, s);
    ASSERT_TRUE(tree.ok());
    trees.push_back(std::move(tree).value());
  }
  for (NodeId s = 0; s < 25; ++s) {
    EXPECT_EQ(trees[s].Distance(s), 0.0);
    for (NodeId d = 0; d < 25; ++d) {
      EXPECT_NEAR(trees[s].Distance(d), trees[d].Distance(s), 1e-12)
          << s << "<->" << d;
    }
  }
}

TEST(SsspTest, TreeDistancesSatisfyEveryEdgeConstraint) {
  // Bellman's optimality condition: no edge can shorten a settled
  // distance, d(v) <= d(u) + c(u, v), and every non-source node is
  // reached through a tight edge from its predecessor on PathTo.
  auto g = GridGraphGenerator::Generate({7, GridCostModel::kSkewed});
  ASSERT_TRUE(g.ok());
  for (NodeId s : {NodeId{0}, NodeId{24}, NodeId{48}}) {
    auto tree = SingleSourceDijkstra(*g, s);
    ASSERT_TRUE(tree.ok());
    for (NodeId u = 0; u < 49; ++u) {
      for (const graph::Edge& e : g->Neighbors(u)) {
        EXPECT_LE(tree->Distance(e.to), tree->Distance(u) + e.cost + 1e-12)
            << s << ": " << u << "->" << e.to;
      }
      if (u == s) continue;
      const auto path = tree->PathTo(u);
      ASSERT_GE(path.size(), 2u);
      const NodeId pred = path[path.size() - 2];
      EXPECT_NEAR(tree->Distance(u),
                  tree->Distance(pred) + *g->EdgeCost(pred, u), 1e-12);
    }
  }
}

TEST(SsspTest, DiameterIsTheLargestTreeDistance) {
  auto g = GridGraphGenerator::Generate({6, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  double want = 0.0;
  for (NodeId s = 0; s < 36; ++s) {
    auto tree = SingleSourceDijkstra(*g, s);
    ASSERT_TRUE(tree.ok());
    for (NodeId d = 0; d < 36; ++d) want = std::max(want, tree->Distance(d));
  }
  auto diameter = GraphDiameter(*g);
  ASSERT_TRUE(diameter.ok());
  EXPECT_DOUBLE_EQ(*diameter, want);
  EXPECT_GT(want, 0.0);
}

TEST(SsspTest, DiameterOfUniformGrid) {
  // Diameter of a k x k unit grid = 2 * (k - 1).
  auto g = GridGraphGenerator::Generate({6, GridCostModel::kUniform});
  ASSERT_TRUE(g.ok());
  auto diameter = GraphDiameter(*g);
  ASSERT_TRUE(diameter.ok());
  EXPECT_DOUBLE_EQ(*diameter, 10.0);
}

TEST(SsspTest, DiameterIgnoresUnreachablePairs) {
  Graph g;
  g.AddNode(0, 0);
  g.AddNode(1, 0);
  g.AddNode(9, 9);  // isolated
  ASSERT_TRUE(g.AddUndirectedEdge(0, 1, 3.0).ok());
  auto diameter = GraphDiameter(g);
  ASSERT_TRUE(diameter.ok());
  EXPECT_DOUBLE_EQ(*diameter, 3.0);
}

TEST(SsspTest, PaperHypothesisPathLengthVsDiameter) {
  // The paper's main hypothesis: estimators help when path length is
  // small compared to the graph diameter. Quantify it directly.
  auto g = GridGraphGenerator::Generate({12, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  auto diameter = GraphDiameter(*g);
  ASSERT_TRUE(diameter.ok());
  auto man = MakeEstimator(EstimatorKind::kManhattan);
  // Short query (~1/11 of diameter): A* examines a small fraction.
  const auto short_r = AStarSearch(*g, 0, 1, *man);
  // Full-diameter query: most of the graph.
  const auto q = GridGraphGenerator::DiagonalQuery(12);
  const auto long_r = AStarSearch(*g, q.source, q.destination, *man);
  EXPECT_LT(short_r.cost / *diameter, 0.15);
  EXPECT_LT(short_r.stats.nodes_expanded * 10,
            long_r.stats.nodes_expanded);
}

}  // namespace
}  // namespace atis::core
