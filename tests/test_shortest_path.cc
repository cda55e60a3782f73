#include "graph/shortest_path.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "core/estimator.h"
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

// ---------------------------------------------------------------------------
// The potential (A*) instantiation.

/// Random directed graph whose arc costs are at least the Euclidean
/// distance between their ends, so the Euclidean potential is consistent.
Graph EuclideanGraph(uint64_t seed, int n = 80, int arcs = 320) {
  Rng rng(seed);
  Graph g;
  for (int i = 0; i < n; ++i) {
    g.AddNode(rng.UniformDouble(0, 100), rng.UniformDouble(0, 100));
  }
  for (int i = 0; i < arcs; ++i) {
    const auto u = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    const auto v = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    const double dx = g.point(u).x - g.point(v).x;
    const double dy = g.point(u).y - g.point(v).y;
    const double length = std::sqrt(dx * dx + dy * dy);
    EXPECT_TRUE(
        g.AddEdge(u, v, length * rng.UniformDouble(1.0, 1.5) + 0.1).ok());
  }
  return g;
}

/// A potential read from a table, counting its evaluations.
struct TablePotential {
  const std::vector<double>* pi;
  size_t* calls;
  double operator()(NodeId v) const {
    ++*calls;
    return (*pi)[static_cast<size_t>(v)];
  }
};

TEST(ShortestPathPotentialTest, ConsistentPotentialEqualsAStarSearch) {
  const auto euclid = core::MakeEstimator(core::EstimatorKind::kEuclidean);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = EuclideanGraph(seed);
    const auto n = static_cast<NodeId>(g.num_nodes());
    for (NodeId s = 0; s < n; s += 13) {
      for (NodeId d = 5; d < n; d += 11) {
        SCOPED_TRACE(::testing::Message() << seed << ": " << s << "->" << d);
        const core::PathResult want = core::AStarSearch(g, s, d, *euclid);
        auto pi = [&](NodeId v) {
          return euclid->EstimateNodes(v, g.point(v), d, g.point(d));
        };
        BasicShortestPathSearch<double, decltype(pi)> search(g.num_nodes(),
                                                             pi);
        search.Seed(s, 0.0);
        uint64_t generated = 0;
        uint64_t improved = 0;
        search.Run(
            [&](NodeId u, const auto& relax) {
              for (const Edge& e : g.Neighbors(u)) {
                ++generated;
                if (relax(e.to, e.cost)) ++improved;
              }
            },
            [&](NodeId u) { return u == d; });
        ASSERT_EQ(search.Reached(d), want.found);
        EXPECT_EQ(search.reopened(), 0u);
        EXPECT_EQ(want.stats.reopenings, 0u);
        if (!want.found) continue;
        EXPECT_EQ(search.dist(d), want.cost);
        EXPECT_EQ(search.PathTo(d), want.path);
        EXPECT_EQ(search.settled() - 1, want.stats.iterations);
        EXPECT_EQ(generated, want.stats.nodes_generated);
        EXPECT_EQ(improved, want.stats.nodes_improved);
      }
    }
  }
}

TEST(ShortestPathPotentialTest, EqualKeysSettleByLargerDistThenSmallerId) {
  // From node 0: every leaf's key dist + pi is 4.
  Graph g;
  for (int i = 0; i < 6; ++i) g.AddNode(i, 0);
  ASSERT_TRUE(g.AddEdge(0, 1, 1).ok());  // g 1, pi 3
  ASSERT_TRUE(g.AddEdge(0, 5, 3).ok());  // g 3, pi 1
  ASSERT_TRUE(g.AddEdge(0, 3, 2).ok());  // g 2, pi 2
  ASSERT_TRUE(g.AddEdge(0, 2, 3).ok());  // g 3, pi 1
  ASSERT_TRUE(g.AddEdge(0, 4, 2).ok());  // g 2, pi 2
  const std::vector<double> table = {4, 3, 1, 2, 2, 1};
  size_t calls = 0;
  BasicShortestPathSearch<double, TablePotential> search(
      g.num_nodes(), TablePotential{&table, &calls});
  search.Seed(0, 0.0);
  std::vector<NodeId> order;
  for (NodeId u = search.Step(ArcsOf(g)); u != kInvalidNode;
       u = search.Step(ArcsOf(g))) {
    order.push_back(u);
  }
  EXPECT_EQ(order, (std::vector<NodeId>{0, 2, 5, 3, 4, 1}));
  EXPECT_EQ(calls, 6u);  // once per reached node
}

/// Reference A* over float labels, written the way the status-attribute
/// engine runs it on R: every label is stored rounded to float, and each
/// step scans all open nodes for the best (key, larger dist, smaller id).
struct FloatReference {
  std::vector<float> dist;
  std::vector<NodeId> parent;
  std::vector<NodeId> order;
  uint64_t reopenings = 0;
};

FloatReference RunFloatReference(const Graph& g, NodeId s,
                                 const std::vector<double>& pi) {
  enum State : uint8_t { kNull, kOpen, kClosed };
  const size_t n = g.num_nodes();
  FloatReference ref;
  ref.dist.assign(n, std::numeric_limits<float>::infinity());
  ref.parent.assign(n, kInvalidNode);
  std::vector<State> state(n, kNull);
  ref.dist[static_cast<size_t>(s)] = 0.0f;
  state[static_cast<size_t>(s)] = kOpen;
  while (true) {
    NodeId best = kInvalidNode;
    double best_key = kInf;
    for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
      const auto i = static_cast<size_t>(v);
      if (state[i] != kOpen) continue;
      const double gv = ref.dist[i];
      const double key = gv + pi[i];
      if (key == kInf) continue;
      if (best == kInvalidNode || key < best_key ||
          (key == best_key &&
           (gv > ref.dist[static_cast<size_t>(best)] ||
            (gv == ref.dist[static_cast<size_t>(best)] && v < best)))) {
        best = v;
        best_key = key;
      }
    }
    if (best == kInvalidNode) return ref;
    ref.order.push_back(best);
    state[static_cast<size_t>(best)] = kClosed;
    const double du = ref.dist[static_cast<size_t>(best)];
    for (const Edge& e : g.Neighbors(best)) {
      const auto i = static_cast<size_t>(e.to);
      const double d = du + e.cost;
      if (!(d < ref.dist[i])) continue;
      if (state[i] == kClosed) ++ref.reopenings;
      ref.dist[i] = static_cast<float>(d);
      ref.parent[i] = best;
      state[i] = kOpen;
    }
  }
}

TEST(ShortestPathPotentialTest, FloatLabelsEqualAFloatRoundingReference) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    // Real costs: double sums and their float roundings differ in the
    // low bits, and some "improvements" round back to the old label.
    const Graph g = RandomGraph(seed, 120, 600);
    std::vector<double> pi(g.num_nodes());
    for (size_t v = 0; v < pi.size(); ++v) {
      pi[v] = v % 9 == 4 ? kInf : 0.25 * static_cast<double>(v % 5);
    }
    const FloatReference want = RunFloatReference(g, 0, pi);

    size_t calls = 0;
    BasicShortestPathSearch<float, TablePotential> search(
        g.num_nodes(), TablePotential{&pi, &calls});
    search.Seed(0, 0.0);
    std::vector<NodeId> order;
    search.Run(ArcsOf(g), [&](NodeId u) {
      order.push_back(u);
      return false;
    });
    EXPECT_EQ(order, want.order) << seed;
    EXPECT_EQ(search.reopened(), want.reopenings) << seed;
    for (NodeId v = 0; v < static_cast<NodeId>(g.num_nodes()); ++v) {
      EXPECT_EQ(search.dist(v),
                static_cast<double>(want.dist[static_cast<size_t>(v)]))
          << seed << " node " << v;
      EXPECT_EQ(search.parent(v), want.parent[static_cast<size_t>(v)])
          << seed << " node " << v;
    }
  }
}

TEST(ShortestPathPotentialTest, ImprovingToTheSameFloatLabelQueuesOnce) {
  // Node 3 is offered 1 + 2^-30 from node 1, then 1 - 2^-30 from node 2:
  // the second offer is lower, but both round to the float 1. The node
  // takes the new parent and is settled once more only if it had been
  // settled already (as R's status column reopens a closed row).
  Graph g;
  for (int i = 0; i < 5; ++i) g.AddNode(i, 0);
  const double tiny = std::ldexp(1.0, -30);
  ASSERT_TRUE(g.AddEdge(0, 1, 0.25).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(1, 3, 0.75 + tiny).ok());
  ASSERT_TRUE(g.AddEdge(2, 3, 0.5 - tiny).ok());
  ASSERT_TRUE(g.AddEdge(3, 4, 1.0).ok());
  // pi(2) = 10 delays node 2 until node 3 has settled.
  for (const double pi2 : {0.0, 10.0}) {
    SCOPED_TRACE(pi2);
    const std::vector<double> table = {0, 0, pi2, 0, 0};
    size_t calls = 0;
    BasicShortestPathSearch<float, TablePotential> search(
        g.num_nodes(), TablePotential{&table, &calls});
    search.Seed(0, 0.0);
    std::vector<NodeId> order;
    search.Run(ArcsOf(g), [&](NodeId u) {
      order.push_back(u);
      return false;
    });
    const FloatReference want = RunFloatReference(g, 0, table);
    EXPECT_EQ(order, want.order);
    EXPECT_EQ(order, pi2 == 0.0 ? (std::vector<NodeId>{0, 1, 2, 3, 4})
                                : (std::vector<NodeId>{0, 1, 3, 4, 2, 3}));
    EXPECT_EQ(search.reopened(), pi2 == 0.0 ? 0u : 1u);
    EXPECT_EQ(search.dist(3), 1.0);
    EXPECT_EQ(search.parent(3), 2);
  }
}

TEST(ShortestPathPotentialTest, InconsistentPotentialReopensAndStaysExact) {
  // 0 -> 1 costs 3 directly but 2 via node 2, whose potential of 5
  // overestimates: node 1 (and then 3) settle before 2 is scanned, so
  // both are improved after settling and must be settled again.
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode(i, 0);
  ASSERT_TRUE(g.AddEdge(0, 1, 3).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, 1).ok());
  ASSERT_TRUE(g.AddEdge(2, 1, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 3, 1).ok());
  const std::vector<double> table = {0, 0, 5, 0};
  size_t calls = 0;
  BasicShortestPathSearch<double, TablePotential> search(
      g.num_nodes(), TablePotential{&table, &calls});
  search.Seed(0, 0.0);
  std::vector<NodeId> order;
  search.Run(ArcsOf(g), [&](NodeId u) {
    order.push_back(u);
    return false;
  });
  EXPECT_EQ(order, (std::vector<NodeId>{0, 1, 3, 2, 1, 3}));
  EXPECT_EQ(search.reopened(), 2u);
  EXPECT_EQ(calls, 4u);  // a reopened node keeps its potential
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_EQ(search.dist(v), OracleDist(g, 0, v)) << v;
  }
  EXPECT_EQ(search.PathTo(3), (std::vector<NodeId>{0, 2, 1, 3}));
}

TEST(ShortestPathPotentialTest, InfiniteKeysAreNeverSettled) {
  const Graph g = IntegerGrid(3, 5);
  std::vector<double> table(g.num_nodes(), 0.0);
  table[6] = kInf;  // a wall the search may label but never settle
  size_t calls = 0;
  BasicShortestPathSearch<double, TablePotential> search(
      g.num_nodes(), TablePotential{&table, &calls});
  search.Seed(6, 0.0);
  EXPECT_EQ(search.Step(ArcsOf(g)), kInvalidNode);
  EXPECT_EQ(search.settled(), 0u);
}

// ---------------------------------------------------------------------------
// The default instantiation is the Dijkstra kernel it always was.

/// The kernel's loop as it stood before the potential was added: a
/// (dist, id) min-heap, stale entries skipped, strict relaxation.
std::vector<NodeId> SettleOrderBefore(const Graph& g, NodeId s,
                                      std::vector<double>* dist,
                                      std::vector<NodeId>* parent) {
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist->assign(g.num_nodes(), kInf);
  parent->assign(g.num_nodes(), kInvalidNode);
  (*dist)[static_cast<size_t>(s)] = 0.0;
  heap.emplace(0.0, s);
  std::vector<NodeId> order;
  while (!heap.empty()) {
    const Entry top = heap.top();
    heap.pop();
    if (top.first > (*dist)[static_cast<size_t>(top.second)]) continue;
    order.push_back(top.second);
    for (const Edge& e : g.Neighbors(top.second)) {
      const double d = top.first + e.cost;
      if (!(d < (*dist)[static_cast<size_t>(e.to)])) continue;
      (*dist)[static_cast<size_t>(e.to)] = d;
      (*parent)[static_cast<size_t>(e.to)] = top.second;
      heap.emplace(d, e.to);
    }
  }
  return order;
}

TEST(ShortestPathTest, DefaultInstantiationSettlesTheSameSequenceAsBefore) {
  for (const Case& test : TestGraphs()) {
    const Graph& g = test.g;
    for (const NodeId s : {NodeId{0}, NodeId{5}}) {
      std::vector<double> dist;
      std::vector<NodeId> parent;
      const std::vector<NodeId> want = SettleOrderBefore(g, s, &dist, &parent);
      ShortestPathSearch search(g.num_nodes());
      search.Seed(s, 0.0);
      std::vector<NodeId> order;
      search.Run(ArcsOf(g), [&](NodeId u) {
        order.push_back(u);
        return false;
      });
      EXPECT_EQ(order, want);
      EXPECT_EQ(search.TakeParents(), parent);
      EXPECT_EQ(search.TakeDistances(), dist);
    }
  }
}

}  // namespace
}  // namespace atis::graph
