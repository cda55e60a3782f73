#include "graph/shortest_path.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "core/memory_search.h"
#include "util/random.h"

namespace atis::graph {
namespace {

using core::DijkstraSearch;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Random directed graph with real costs in [0.5, 10).
Graph RandomGraph(uint64_t seed, int n = 60, int arcs = 180) {
  Rng rng(seed);
  Graph g;
  for (int i = 0; i < n; ++i) {
    g.AddNode(rng.UniformDouble(0, 100), rng.UniformDouble(0, 100));
  }
  for (int i = 0; i < arcs; ++i) {
    const auto u = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    const auto v = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    EXPECT_TRUE(g.AddEdge(u, v, rng.UniformDouble(0.5, 10.0)).ok());
  }
  return g;
}

/// k x k grid of undirected edges with integer costs in [1, 4]: every
/// path sum is exact, so kernel and oracle agree with ==, and equal-cost
/// ties are common.
Graph IntegerGrid(uint64_t seed, int k = 9) {
  Rng rng(seed);
  Graph g;
  for (int r = 0; r < k; ++r) {
    for (int c = 0; c < k; ++c) g.AddNode(c, r);
  }
  for (int r = 0; r < k; ++r) {
    for (int c = 0; c < k; ++c) {
      const NodeId u = r * k + c;
      if (c + 1 < k) {
        EXPECT_TRUE(g.AddUndirectedEdge(
                         u, u + 1, static_cast<double>(rng.UniformInt(1, 4)))
                        .ok());
      }
      if (r + 1 < k) {
        EXPECT_TRUE(g.AddUndirectedEdge(
                         u, u + k, static_cast<double>(rng.UniformInt(1, 4)))
                        .ok());
      }
    }
  }
  return g;
}

/// A test graph and whether its path sums are exact. Real-cost sums
/// depend on the order they are accumulated in, so a distance built
/// another way (from another end, or from a seed offset) can differ in
/// the last bit.
struct Case {
  Graph g;
  bool exact;
};

std::vector<Case> TestGraphs() {
  std::vector<Case> cases;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    cases.push_back({RandomGraph(seed), false});
    cases.push_back({IntegerGrid(seed), true});
  }
  return cases;
}

void ExpectDist(double got, double want, bool exact) {
  if (exact || want == kInf) {
    EXPECT_EQ(got, want);
  } else {
    EXPECT_NEAR(got, want, 1e-9);
  }
}

/// Adjacency callable over a Graph's out-arcs.
auto ArcsOf(const Graph& g) {
  return [&g](NodeId u, const auto& relax) {
    for (const Edge& e : g.Neighbors(u)) relax(e.to, e.cost);
  };
}

/// Oracle distance s -> v (+inf when unreachable).
double OracleDist(const Graph& g, NodeId s, NodeId v) {
  const core::PathResult r = DijkstraSearch(g, s, v);
  return r.found ? r.cost : kInf;
}

/// Cost of `path` over the cheapest parallel arcs, accumulated arc by
/// arc from `start` (the order a forward search accumulates its labels).
double PathCost(const Graph& g, const std::vector<NodeId>& path,
                double start = 0.0) {
  double cost = start;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    double arc = kInf;
    for (const Edge& e : g.Neighbors(path[i])) {
      if (e.to == path[i + 1]) arc = std::min(arc, e.cost);
    }
    cost += arc;
  }
  return cost;
}

TEST(ShortestPathTest, SingleSourceMatchesDijkstraSearch) {
  for (const auto& [g, exact] : TestGraphs()) {
    const auto n = static_cast<NodeId>(g.num_nodes());
    for (const NodeId s : {NodeId{0}, NodeId{n / 2}}) {
      ShortestPathSearch search(g.num_nodes());
      search.Seed(s, 0.0);
      search.Run(ArcsOf(g));
      size_t reached = 0;
      for (NodeId v = 0; v < n; ++v) {
        ExpectDist(search.dist(v), OracleDist(g, s, v), exact);
        if (!search.Reached(v)) {
          EXPECT_TRUE(search.PathTo(v).empty());
          continue;
        }
        ++reached;
        const std::vector<NodeId> path = search.PathTo(v);
        ASSERT_FALSE(path.empty());
        EXPECT_EQ(path.front(), s);
        EXPECT_EQ(path.back(), v);
        ExpectDist(PathCost(g, path), search.dist(v), exact);
      }
      EXPECT_EQ(search.settled(), reached);
    }
  }
}

TEST(ShortestPathTest, MultiSourceSeedsTakeTheCheapestOffset) {
  for (const auto& [g, exact] : TestGraphs()) {
    const auto n = static_cast<NodeId>(g.num_nodes());
    const std::vector<std::pair<NodeId, double>> seeds = {
        {0, 3.0}, {n / 3, 0.0}, {n - 1, 1.0}};
    ShortestPathSearch search(g.num_nodes());
    for (const auto& [s, d] : seeds) search.Seed(s, d);
    search.Run(ArcsOf(g));
    for (NodeId v = 0; v < n; ++v) {
      double expect = kInf;
      for (const auto& [s, d] : seeds) {
        expect = std::min(expect, d + OracleDist(g, s, v));
      }
      ExpectDist(search.dist(v), expect, exact);
      if (search.Reached(v)) {
        const std::vector<NodeId> path = search.PathTo(v);
        const auto seed = std::find_if(
            seeds.begin(), seeds.end(),
            [&](const auto& sd) { return sd.first == path.front(); });
        ASSERT_NE(seed, seeds.end());
        ExpectDist(PathCost(g, path, seed->second), search.dist(v), exact);
      }
    }
  }
}

TEST(ShortestPathTest, ArcRestrictionMatchesSearchOnTheSubgraph) {
  for (const auto& [g, exact] : TestGraphs()) {
    const auto n = static_cast<NodeId>(g.num_nodes());
    auto banned = [](NodeId v) { return v % 5 == 3; };
    Graph sub;
    for (NodeId u = 0; u < n; ++u) sub.AddNode(g.point(u).x, g.point(u).y);
    for (NodeId u = 0; u < n; ++u) {
      for (const Edge& e : g.Neighbors(u)) {
        if (!banned(e.to)) {
          ASSERT_TRUE(sub.AddEdge(u, e.to, e.cost).ok());
        }
      }
    }
    ShortestPathSearch search(g.num_nodes());
    search.Seed(0, 0.0);
    search.Run([&](NodeId u, const auto& relax) {
      for (const Edge& e : g.Neighbors(u)) {
        if (!banned(e.to)) relax(e.to, e.cost);
      }
    });
    for (NodeId v = 0; v < n; ++v) {
      ExpectDist(search.dist(v), OracleDist(sub, 0, v), exact);
      if (v != 0 && banned(v)) {
        EXPECT_FALSE(search.Reached(v));
      }
    }
  }
}

TEST(ShortestPathTest, StopOnTargetSetSettlesTheNearestTarget) {
  for (const auto& [g, exact] : TestGraphs()) {
    const auto n = static_cast<NodeId>(g.num_nodes());
    const std::set<NodeId> targets = {n / 4, n / 2, n - 2};
    double nearest = kInf;
    for (const NodeId t : targets) {
      nearest = std::min(nearest, OracleDist(g, 1, t));
    }

    ShortestPathSearch search(g.num_nodes());
    search.Seed(1, 0.0);
    NodeId stopped = kInvalidNode;
    std::vector<NodeId> scanned;
    search.Run(
        [&](NodeId u, const auto& relax) {
          scanned.push_back(u);
          for (const Edge& e : g.Neighbors(u)) relax(e.to, e.cost);
        },
        [&](NodeId u) {
          if (targets.count(u) == 0) return false;
          stopped = u;
          return true;
        });
    if (nearest == kInf) {
      EXPECT_EQ(stopped, kInvalidNode);
      continue;
    }
    ASSERT_NE(stopped, kInvalidNode);
    ExpectDist(search.dist(stopped), nearest, exact);
    // The stopping node is settled but not scanned, and nothing settled
    // before it lies beyond it.
    EXPECT_EQ(search.settled(), scanned.size() + 1);
    EXPECT_EQ(std::count(scanned.begin(), scanned.end(), stopped), 0);
    for (const NodeId u : scanned) {
      EXPECT_LE(search.dist(u), search.dist(stopped));
    }
  }
}

TEST(ShortestPathTest, ReverseAdjacencyGivesDistancesToTheRoot) {
  for (const auto& [g, exact] : TestGraphs()) {
    const auto n = static_cast<NodeId>(g.num_nodes());
    const Graph rev = ReverseOf(g);
    const NodeId root = n - 1;
    ShortestPathSearch search(g.num_nodes());
    search.Seed(root, 0.0);
    search.Run(ArcsOf(rev));
    for (NodeId v = 0; v < n; ++v) {
      ExpectDist(search.dist(v), OracleDist(g, v, root), exact);
      if (!search.Reached(v)) continue;
      // The reverse tree's parents are forward successors.
      std::vector<NodeId> path = search.PathTo(v);
      std::reverse(path.begin(), path.end());
      EXPECT_EQ(path.back(), root);
      ExpectDist(PathCost(g, path), search.dist(v), exact);
    }
  }
}

TEST(ShortestPathTest, FailingAdjacencyStopsTheRunWithItsStatus) {
  const Graph g = IntegerGrid(7);
  size_t scans = 0;
  auto failing = [&](NodeId u, const auto& relax) -> Status {
    if (++scans == 5) return Status::Unavailable("adjacency read failed");
    for (const Edge& e : g.Neighbors(u)) relax(e.to, e.cost);
    return Status::OK();
  };

  ShortestPathSearch run(g.num_nodes());
  run.Seed(0, 0.0);
  const Status st = run.Run(failing);
  EXPECT_TRUE(st.IsUnavailable());
  EXPECT_EQ(st.message(), "adjacency read failed");
  EXPECT_EQ(scans, 5u);
  EXPECT_EQ(run.settled(), 5u);

  scans = 0;
  ShortestPathSearch step(g.num_nodes());
  step.Seed(0, 0.0);
  for (int i = 0; i < 4; ++i) {
    const Result<NodeId> u = step.Step(failing);
    ASSERT_TRUE(u.ok());
    EXPECT_NE(*u, kInvalidNode);
  }
  EXPECT_TRUE(step.Step(failing).status().IsUnavailable());
}

TEST(ShortestPathTest, EqualCostTiesSettleInAscendingId) {
  // A star whose arcs are added in scrambled order, all of cost 2, plus
  // a second layer that re-creates the ties one level further out.
  Graph g;
  for (int i = 0; i < 10; ++i) g.AddNode(i, 0);
  for (const NodeId v : {7, 2, 9, 4}) ASSERT_TRUE(g.AddEdge(0, v, 2).ok());
  ASSERT_TRUE(g.AddEdge(9, 1, 1).ok());
  ASSERT_TRUE(g.AddEdge(2, 8, 1).ok());
  ASSERT_TRUE(g.AddEdge(7, 3, 1).ok());

  ShortestPathSearch search(g.num_nodes());
  search.Seed(0, 0.0);
  std::vector<NodeId> order;
  for (NodeId u = search.Step(ArcsOf(g)); u != kInvalidNode;
       u = search.Step(ArcsOf(g))) {
    order.push_back(u);
  }
  EXPECT_EQ(order, (std::vector<NodeId>{0, 2, 4, 7, 9, 1, 3, 8}));
  EXPECT_EQ(search.settled(), order.size());
}

TEST(ShortestPathTest, StepAndRunSettleTheSameSequence) {
  for (const Case& test : TestGraphs()) {
    const Graph& g = test.g;
    ShortestPathSearch stepped(g.num_nodes());
    stepped.Seed(0, 0.0);
    std::vector<NodeId> by_step;
    for (NodeId u = stepped.Step(ArcsOf(g)); u != kInvalidNode;
         u = stepped.Step(ArcsOf(g))) {
      by_step.push_back(u);
    }

    ShortestPathSearch ran(g.num_nodes());
    ran.Seed(0, 0.0);
    std::vector<NodeId> by_run;
    ran.Run(ArcsOf(g), [&](NodeId u) {
      by_run.push_back(u);
      return false;
    });

    EXPECT_EQ(by_step, by_run);
    EXPECT_EQ(stepped.TakeDistances(), ran.TakeDistances());
    EXPECT_EQ(stepped.settled(), ran.settled());
  }
}

}  // namespace
}  // namespace atis::graph
