#include "core/k_shortest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <set>

#include "core/memory_search.h"
#include "graph/grid_generator.h"
#include "graph/road_map_generator.h"
#include "util/random.h"

namespace atis::core {
namespace {

using graph::Graph;
using graph::GridCostModel;
using graph::GridGraphGenerator;
using graph::NodeId;

/// The classic Yen example topology: two short parallel corridors.
Graph DiamondGraph() {
  Graph g;
  for (int i = 0; i < 6; ++i) g.AddNode(i, 0);
  // 0 -> 1 -> 3 -> 5 cost 3; 0 -> 2 -> 4 -> 5 cost 4; cross links.
  EXPECT_TRUE(g.AddEdge(0, 1, 1).ok());
  EXPECT_TRUE(g.AddEdge(1, 3, 1).ok());
  EXPECT_TRUE(g.AddEdge(3, 5, 1).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, 1.5).ok());
  EXPECT_TRUE(g.AddEdge(2, 4, 1.5).ok());
  EXPECT_TRUE(g.AddEdge(4, 5, 1).ok());
  EXPECT_TRUE(g.AddEdge(1, 4, 2).ok());
  EXPECT_TRUE(g.AddEdge(2, 3, 0.5).ok());
  return g;
}

TEST(KShortestTest, InvalidArguments) {
  const Graph g = DiamondGraph();
  EXPECT_TRUE(KShortestPaths(g, 0, 99, 3).status().IsInvalidArgument());
  EXPECT_TRUE(KShortestPaths(g, 99, 0, 3).status().IsInvalidArgument());
  EXPECT_TRUE(KShortestPaths(g, 0, 5, 0).status().IsInvalidArgument());
}

TEST(KShortestTest, FirstPathIsDijkstraOptimal) {
  const Graph g = DiamondGraph();
  auto paths = KShortestPaths(g, 0, 5, 1);
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), 1u);
  const auto dj = DijkstraSearch(g, 0, 5);
  EXPECT_NEAR((*paths)[0].cost, dj.cost, 1e-12);
  EXPECT_EQ((*paths)[0].path, dj.path);
}

TEST(KShortestTest, RanksAlternativesByCost) {
  const Graph g = DiamondGraph();
  auto paths = KShortestPaths(g, 0, 5, 4);
  ASSERT_TRUE(paths.ok());
  ASSERT_GE(paths->size(), 3u);
  // Hand-checked ranking: 0-1-3-5 (3.0), then 0-2-3-5 (3.0), 0-2-4-5 (4)...
  for (size_t i = 0; i + 1 < paths->size(); ++i) {
    EXPECT_LE((*paths)[i].cost, (*paths)[i + 1].cost + 1e-12);
  }
  EXPECT_NEAR((*paths)[0].cost, 3.0, 1e-12);
  EXPECT_EQ((*paths)[0].path, (std::vector<NodeId>{0, 1, 3, 5}));
  EXPECT_NEAR((*paths)[1].cost, 3.0, 1e-12);
  EXPECT_EQ((*paths)[1].path, (std::vector<NodeId>{0, 2, 3, 5}));
  EXPECT_NEAR((*paths)[2].cost, 4.0, 1e-12);
}

TEST(KShortestTest, PathsAreDistinctAndLoopless) {
  auto g = GridGraphGenerator::Generate({6, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  auto paths = KShortestPaths(*g, 0, 35, 8);
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), 8u);
  std::set<std::vector<NodeId>> unique;
  for (const RankedPath& p : *paths) {
    EXPECT_TRUE(unique.insert(p.path).second) << "duplicate path";
    std::set<NodeId> nodes(p.path.begin(), p.path.end());
    EXPECT_EQ(nodes.size(), p.path.size()) << "path contains a loop";
    EXPECT_EQ(p.path.front(), 0);
    EXPECT_EQ(p.path.back(), 35);
  }
}

TEST(KShortestTest, CostsMatchEvaluatedRoutes) {
  auto g = GridGraphGenerator::Generate({6, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  auto paths = KShortestPaths(*g, 0, 35, 5);
  ASSERT_TRUE(paths.ok());
  for (const RankedPath& p : *paths) {
    double total = 0.0;
    for (size_t i = 0; i + 1 < p.path.size(); ++i) {
      total += *g->EdgeCost(p.path[i], p.path[i + 1]);
    }
    EXPECT_NEAR(total, p.cost, 1e-9);
  }
}

TEST(KShortestTest, ExhaustsSmallGraphs) {
  // A 2x2 grid has exactly 2 loopless corner-to-corner paths.
  auto g = GridGraphGenerator::Generate({2, GridCostModel::kUniform});
  ASSERT_TRUE(g.ok());
  auto paths = KShortestPaths(*g, 0, 3, 10);
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 2u);
}

TEST(KShortestTest, UnreachableGivesEmpty) {
  Graph g;
  g.AddNode(0, 0);
  g.AddNode(5, 5);
  auto paths = KShortestPaths(g, 0, 1, 3);
  ASSERT_TRUE(paths.ok());
  EXPECT_TRUE(paths->empty());
}

TEST(KShortestTest, SourceEqualsDestination) {
  const Graph g = DiamondGraph();
  auto paths = KShortestPaths(g, 0, 0, 3);
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), 1u);  // the trivial empty route only
  EXPECT_EQ((*paths)[0].cost, 0.0);
  EXPECT_EQ((*paths)[0].path, std::vector<NodeId>{0});
}

TEST(KShortestTest, AlternatesOnRoadMapAreReasonable) {
  auto rm = graph::GenerateMinneapolisLike();
  ASSERT_TRUE(rm.ok());
  auto paths = KShortestPaths(rm->graph, rm->e, rm->f, 3);
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), 3u);
  // Alternatives are near the optimum (dense street grid).
  EXPECT_LE((*paths)[2].cost, 1.5 * (*paths)[0].cost);
}

TEST(KShortestTest, SecondPathStrictlyDifferentEvenWithParallelEdges) {
  Graph g;
  g.AddNode(0, 0);
  g.AddNode(1, 0);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(0, 1, 2.0).ok());  // parallel, more expensive
  auto paths = KShortestPaths(g, 0, 1, 5);
  ASSERT_TRUE(paths.ok());
  // Node-sequence semantics: one distinct path, costed with the cheaper
  // parallel edge.
  ASSERT_EQ(paths->size(), 1u);
  EXPECT_NEAR((*paths)[0].cost, 1.0, 1e-12);
}


/// Every loopless path source -> destination by depth-first enumeration,
/// each costed with its cheapest edges, sorted by cost.
std::vector<RankedPath> AllLooplessPaths(const Graph& g, NodeId source,
                                         NodeId destination) {
  std::vector<RankedPath> out;
  std::vector<NodeId> path{source};
  std::vector<bool> on_path(g.num_nodes(), false);
  on_path[static_cast<size_t>(source)] = true;
  std::function<void(double)> extend = [&](double cost) {
    const NodeId u = path.back();
    if (u == destination) {
      out.push_back({cost, path});
      return;
    }
    std::set<NodeId> seen;
    for (const graph::Edge& e : g.Neighbors(u)) {
      if (on_path[static_cast<size_t>(e.to)] || !seen.insert(e.to).second) {
        continue;
      }
      on_path[static_cast<size_t>(e.to)] = true;
      path.push_back(e.to);
      extend(cost + *g.EdgeCost(u, e.to));
      path.pop_back();
      on_path[static_cast<size_t>(e.to)] = false;
    }
  };
  extend(0.0);
  std::sort(out.begin(), out.end(),
            [](const RankedPath& a, const RankedPath& b) {
              return a.cost < b.cost;
            });
  return out;
}

/// Property: on small directed grids (random costs, one-way streets),
/// the k paths returned are exactly the k cheapest loopless
/// paths a brute-force enumeration finds. `atis_cli alternates` lists
/// these as the alternate routes.
class KShortestProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KShortestProperty, MatchesBruteForceEnumeration) {
  GridGraphGenerator::Options opt;
  opt.k = 4;
  opt.cost_model = GridCostModel::kVariance20;
  opt.seed = GetParam();
  auto grid = GridGraphGenerator::Generate(opt);
  ASSERT_TRUE(grid.ok());
  // Make about a third of the streets one-way, in a random direction,
  // except along the bottom row and right column, so that 0 -> 15 stays
  // routable.
  Rng rng(GetParam() * 131);
  Graph g;
  for (NodeId n = 0; n < static_cast<NodeId>(grid->num_nodes()); ++n) {
    g.AddNode(grid->point(n).x, grid->point(n).y);
  }
  const auto on_route = [](NodeId n) { return n / 4 == 0 || n % 4 == 3; };
  for (NodeId n = 0; n < static_cast<NodeId>(grid->num_nodes()); ++n) {
    for (const graph::Edge& e : grid->Neighbors(n)) {
      if (e.to < n) continue;  // each street once
      bool forward = true;
      bool backward = true;
      if (!(on_route(n) && on_route(e.to)) && rng.NextDouble() < 0.3) {
        (rng.NextDouble() < 0.5 ? forward : backward) = false;
      }
      if (forward) {
        ASSERT_TRUE(g.AddEdge(n, e.to, e.cost).ok());
      }
      if (backward) {
        ASSERT_TRUE(g.AddEdge(e.to, n, *grid->EdgeCost(e.to, n)).ok());
      }
    }
  }

  const NodeId s = 0;
  const NodeId d = 15;
  const std::vector<RankedPath> all = AllLooplessPaths(g, s, d);
  constexpr size_t kK = 10;
  ASSERT_GT(all.size(), kK);  // enough alternatives to rank
  auto paths = KShortestPaths(g, s, d, kK);
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), kK);
  std::set<std::vector<NodeId>> every;
  for (const RankedPath& p : all) every.insert(p.path);
  for (size_t i = 0; i < paths->size(); ++i) {
    // Equal-cost paths may come in either order; the costs may not.
    EXPECT_NEAR((*paths)[i].cost, all[i].cost, 1e-9) << "rank " << i;
    EXPECT_TRUE(every.count((*paths)[i].path)) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KShortestProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

}  // namespace
}  // namespace atis::core
