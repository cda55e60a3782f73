// Tests for core/landmarks: farthest-point selection, triangle-inequality
// lower bounds, persistence through the relational store, A* Version 4
// agreement with the geometric versions, and the live-traffic column
// repair against a from-scratch recompute.
#include "core/landmarks.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/db_search.h"
#include "core/estimator.h"
#include "core/memory_search.h"
#include "core/route_server.h"
#include "core/sssp.h"
#include "core/update_log.h"
#include "graph/grid_generator.h"
#include "graph/relational_graph.h"
#include "graph/road_map_generator.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "util/random.h"

namespace atis::core {
namespace {

using graph::GridCostModel;
using graph::GridGraphGenerator;
using graph::NodeId;

graph::Graph Grid(int k, GridCostModel model) {
  GridGraphGenerator::Options opt;
  opt.k = k;
  opt.cost_model = model;
  auto g = GridGraphGenerator::Generate(opt);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

std::shared_ptr<const LandmarkSet> Select(const graph::Graph& g, size_t k) {
  LandmarkOptions opt;
  opt.num_landmarks = k;
  auto set = SelectLandmarks(g, opt);
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  return std::make_shared<const LandmarkSet>(std::move(set).value());
}

TEST(LandmarkSelectTest, SelectsDistinctSpreadLandmarksDeterministically) {
  const graph::Graph g = Grid(10, GridCostModel::kVariance20);
  auto a = Select(g, 8);
  auto b = Select(g, 8);
  ASSERT_EQ(a->num_landmarks(), 8u);
  EXPECT_EQ(a->landmarks(), b->landmarks());  // deterministic
  for (size_t i = 0; i < a->num_landmarks(); ++i) {
    for (size_t j = i + 1; j < a->num_landmarks(); ++j) {
      EXPECT_NE(a->landmarks()[i], a->landmarks()[j]);
    }
  }
  // Each landmark knows itself at distance zero, both directions.
  for (size_t l = 0; l < a->num_landmarks(); ++l) {
    EXPECT_EQ(a->DistFrom(l, a->landmarks()[l]), 0.0);
    EXPECT_EQ(a->DistTo(l, a->landmarks()[l]), 0.0);
  }
}

TEST(LandmarkSelectTest, CountClampedToGraphAndRejectsEmptyGraph) {
  const graph::Graph g = Grid(3, GridCostModel::kUniform);  // 9 nodes
  auto set = Select(g, 100);
  EXPECT_LE(set->num_landmarks(), 9u);
  EXPECT_GE(set->num_landmarks(), 2u);

  LandmarkOptions opt;
  EXPECT_FALSE(SelectLandmarks(graph::Graph(), opt).ok());
}

TEST(LandmarkBoundTest, LowerBoundsAreAdmissibleOnEveryCostModel) {
  for (const GridCostModel model :
       {GridCostModel::kUniform, GridCostModel::kVariance20,
        GridCostModel::kSkewed}) {
    const graph::Graph g = Grid(8, model);
    auto estimator = MakeLandmarkEstimator(Select(g, 6));
    ASSERT_NE(estimator, nullptr);
    EXPECT_EQ(estimator->kind(), EstimatorKind::kLandmark);
    EXPECT_TRUE(EstimatorIsAdmissibleOn(*estimator, g))
        << "cost model " << static_cast<int>(model);
  }
}

TEST(LandmarkBoundTest, AdmissibleOnOneWayRoadMap) {
  // The road map has one-way streets: this exercises the directed
  // (forward + backward column) form of the triangle inequality.
  auto rm = graph::GenerateMinneapolisLike();
  ASSERT_TRUE(rm.ok());
  auto estimator = MakeLandmarkEstimator(Select(rm->graph, 8));
  EXPECT_TRUE(EstimatorIsAdmissibleOn(*estimator, rm->graph));
}

TEST(LandmarkBoundTest, ExactOnLandmarkAlignedPairs) {
  const graph::Graph g = Grid(6, GridCostModel::kVariance20);
  auto set = Select(g, 4);
  // d(l, t) is itself a landmark bound for from == l, so the bound is
  // exact there; everywhere it is clamped non-negative.
  auto tree = SingleSourceDijkstra(g, set->landmarks()[0]);
  ASSERT_TRUE(tree.ok());
  for (NodeId v = 0; v < static_cast<NodeId>(g.num_nodes()); ++v) {
    const double bound = set->LowerBound(set->landmarks()[0], v);
    EXPECT_GE(bound, 0.0);
    EXPECT_NEAR(bound, tree->Distance(v), 1e-9);
  }
}

TEST(LandmarkBoundTest, EuclideanScaleKeepsPointwiseDominance) {
  // On a distance-cost graph the combined estimator must never fall below
  // plain Euclidean — this is the pointwise-dominance contract Version 4
  // relies on to expand no more nodes than Version 2.
  auto rm = graph::GenerateMinneapolisLike();
  ASSERT_TRUE(rm.ok());
  const graph::Graph& g = rm->graph;
  auto alt = MakeLandmarkEstimator(Select(g, 8), /*euclidean_scale=*/1.0);
  auto eu = MakeEstimator(EstimatorKind::kEuclidean);
  for (NodeId v = 0; v < static_cast<NodeId>(g.num_nodes()); v += 7) {
    const double got = alt->EstimateNodes(v, g.point(v), rm->b,
                                          g.point(rm->b));
    EXPECT_GE(got, eu->Estimate(g.point(v), g.point(rm->b))) << "node " << v;
  }
  EXPECT_TRUE(EstimatorIsAdmissibleOn(*alt, g));
}

TEST(LandmarkRowsTest, ToRowsFromRowsRoundTrips) {
  const graph::Graph g = Grid(5, GridCostModel::kSkewed);
  auto set = Select(g, 3);
  auto back = LandmarkSet::FromRows(set->ToRows());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->landmarks(), set->landmarks());
  for (size_t l = 0; l < set->num_landmarks(); ++l) {
    for (NodeId v = 0; v < static_cast<NodeId>(g.num_nodes()); ++v) {
      EXPECT_EQ(back->DistFrom(l, v), set->DistFrom(l, v));
      EXPECT_EQ(back->DistTo(l, v), set->DistTo(l, v));
    }
  }
}

TEST(LandmarkRowsTest, FromRowsRejectsMalformedTables) {
  EXPECT_FALSE(LandmarkSet::FromRows({}).ok());
  const graph::Graph g = Grid(4, GridCostModel::kUniform);
  auto rows = Select(g, 2)->ToRows();
  rows.pop_back();  // ragged: not k * n rows any more
  EXPECT_FALSE(LandmarkSet::FromRows(rows).ok());
}

TEST(LandmarkPersistTest, PersistAndLoadRoundTripsThroughStore) {
  const graph::Graph g = Grid(6, GridCostModel::kVariance20);
  storage::DiskManager disk;
  storage::BufferPool pool(&disk, 64);
  graph::RelationalGraphStore store(&pool);
  ASSERT_TRUE(store.Load(g).ok());
  EXPECT_FALSE(store.has_landmark_distances());
  EXPECT_FALSE(store.LoadLandmarkDistances().ok());  // nothing stored yet

  auto set = Select(WithStoredEdgeCosts(g), 4);
  auto loaded = PersistAndLoadLandmarks(*set, &store);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(store.has_landmark_distances());
  EXPECT_EQ((*loaded)->landmarks(), set->landmarks());
  for (size_t l = 0; l < set->num_landmarks(); ++l) {
    for (NodeId v = 0; v < static_cast<NodeId>(g.num_nodes()); ++v) {
      // kDouble persistence: distances survive exactly.
      EXPECT_EQ((*loaded)->DistFrom(l, v), set->DistFrom(l, v));
      EXPECT_EQ((*loaded)->DistTo(l, v), set->DistTo(l, v));
    }
  }

  // Re-persisting replaces the table instead of appending to it.
  auto smaller = Select(WithStoredEdgeCosts(g), 2);
  auto reloaded = PersistAndLoadLandmarks(*smaller, &store);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ((*reloaded)->num_landmarks(), smaller->num_landmarks());
}

TEST(AStarV4Test, NeedsEnableLandmarksFirst) {
  const graph::Graph g = Grid(5, GridCostModel::kUniform);
  storage::DiskManager disk;
  storage::BufferPool pool(&disk, 64);
  graph::RelationalGraphStore store(&pool);
  ASSERT_TRUE(store.Load(g).ok());
  DbSearchEngine engine(&store, &pool);
  EXPECT_FALSE(engine.landmarks_enabled());
  EXPECT_FALSE(engine.AStar(0, 24, AStarVersion::kV4).ok());
  EXPECT_FALSE(engine.EnableLandmarks(nullptr).ok());
}

TEST(AStarV4Test, MatchesVersion2CostsWithFewerIterations) {
  // The acceptance property at unit scale: identical path costs, no more
  // iterations than Euclidean A*, on a grid whose costs equal distances.
  const graph::Graph g = Grid(10, GridCostModel::kUniform);
  storage::DiskManager disk;
  storage::BufferPool pool(&disk, 64);
  graph::RelationalGraphStore store(&pool);
  ASSERT_TRUE(store.Load(g).ok());
  DbSearchEngine engine(&store, &pool);

  auto set = Select(WithStoredEdgeCosts(g), 8);
  auto table = PersistAndLoadLandmarks(*set, &store);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(
      engine
          .EnableLandmarks(MakeLandmarkEstimator(std::move(table).value(),
                                                 /*euclidean_scale=*/1.0))
          .ok());
  ASSERT_TRUE(engine.landmarks_enabled());

  const struct {
    NodeId s, d;
  } trips[] = {{0, 99}, {9, 90}, {23, 77}, {5, 94}};
  for (const auto& trip : trips) {
    auto v2 = engine.AStar(trip.s, trip.d, AStarVersion::kV2);
    auto v4 = engine.AStar(trip.s, trip.d, AStarVersion::kV4);
    ASSERT_TRUE(v2.ok() && v4.ok());
    ASSERT_TRUE(v2->found && v4->found);
    EXPECT_NEAR(v4->cost, v2->cost, 1e-9);
    EXPECT_LE(v4->stats.iterations, v2->stats.iterations);
  }
}

TEST(AStarV4Test, InMemoryAStarAcceptsLandmarkEstimator) {
  const graph::Graph g = Grid(9, GridCostModel::kSkewed);
  auto estimator = MakeLandmarkEstimator(Select(g, 6));
  MemorySearchOptions opt;
  opt.estimator_known_admissible = true;  // ALT bounds always are
  const PathResult want = DijkstraSearch(g, 0, 80);
  const PathResult got = AStarSearch(g, 0, 80, *estimator, opt);
  ASSERT_TRUE(got.found);
  EXPECT_NEAR(got.cost, want.cost, 1e-9);
  EXPECT_LE(got.stats.iterations, want.stats.iterations);
  EXPECT_TRUE(got.optimality_guaranteed);
}

// ---- Live-traffic repair (RepairLandmarks) ----

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The oracle: both columns of every landmark recomputed from scratch on
/// `g`, 2k full SSSPs.
LandmarkSet RecomputeLandmarks(const std::vector<NodeId>& landmarks,
                               const graph::Graph& g) {
  const graph::Graph rev = graph::ReverseOf(g);
  std::vector<std::vector<double>> from;
  std::vector<std::vector<double>> to;
  for (const NodeId l : landmarks) {
    auto f = SingleSourceDijkstra(g, l);
    auto t = SingleSourceDijkstra(rev, l);
    EXPECT_TRUE(f.ok() && t.ok());
    from.push_back(f->distances());
    to.push_back(t->distances());
  }
  return LandmarkSet(landmarks, std::move(from), std::move(to));
}

/// Every column of `got` equals the oracle's on `g` with ==. Reports the
/// mismatch count and the first mismatch per column kind.
void ExpectEqualsRecompute(const LandmarkSet& got, const graph::Graph& g) {
  const LandmarkSet want = RecomputeLandmarks(got.landmarks(), g);
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  size_t mismatches = 0;
  for (size_t l = 0; l < got.num_landmarks(); ++l) {
    for (NodeId v = 0; v < static_cast<NodeId>(got.num_nodes()); ++v) {
      for (const bool forward : {true, false}) {
        const double a = forward ? got.DistFrom(l, v) : got.DistTo(l, v);
        const double b = forward ? want.DistFrom(l, v) : want.DistTo(l, v);
        if (a == b) continue;
        if (mismatches++ == 0) {
          ADD_FAILURE() << (forward ? "dist_from" : "dist_to")
                        << " landmark " << l << " node " << v << ": repaired "
                        << a << ", recomputed " << b;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// A metric under update batches with its landmark table kept repaired
/// the way RouteServer keeps it: each changed edge waits in a pending
/// list with the cost the table was computed at (the first one, for an
/// edge changed twice) until a revalidation repairs them all, and the
/// result must then equal the oracle.
class RepairDriver {
 public:
  RepairDriver(graph::Graph g, size_t num_landmarks)
      : g_(std::move(g)),
        reverse_(graph::ReverseOf(g_)),
        table_(RecomputeLandmarks(Select(g_, num_landmarks)->landmarks(),
                                  g_)) {}

  const graph::Graph& graph() const { return g_; }

  void Apply(std::span<const EdgeCostUpdate> batch, bool revalidate) {
    for (const EdgeCostUpdate& e : batch) {
      auto old = g_.EdgeCost(e.u, e.v);
      ASSERT_TRUE(old.ok());
      const uint64_t key =
          (static_cast<uint64_t>(e.u) << 32) | static_cast<uint32_t>(e.v);
      if (keys_.insert(key).second) pending_.push_back({e.u, e.v, *old});
      ASSERT_TRUE(g_.SetEdgeCost(e.u, e.v, e.cost).ok());
      ASSERT_TRUE(reverse_.SetEdgeCost(e.v, e.u, e.cost).ok());
    }
    if (!revalidate) return;
    auto repaired = RepairLandmarks(table_, g_, reverse_, pending_);
    ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
    table_ = std::move(repaired).value();
    pending_.clear();
    keys_.clear();
    ExpectEqualsRecompute(table_, g_);
  }

 private:
  graph::Graph g_;
  graph::Graph reverse_;
  LandmarkSet table_;
  std::vector<ChangedEdge> pending_;
  std::unordered_set<uint64_t> keys_;
};

/// `edges` updates, each a uniform node's uniform out-edge, its cost times
/// U[lo, hi] (an infinite cost stays infinite).
std::vector<EdgeCostUpdate> RandomBatch(const graph::Graph& g, Rng& rng,
                                        size_t edges, double lo, double hi) {
  std::vector<EdgeCostUpdate> batch;
  while (batch.size() < edges) {
    const auto u = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    const auto out = g.Neighbors(u);
    if (out.empty()) continue;
    const graph::Edge& e = out[rng.UniformInt(out.size())];
    batch.push_back({u, e.to, e.cost * rng.UniformDouble(lo, hi)});
  }
  return batch;
}

/// The two maps every repair case runs on: the 1089-node Minneapolis-like
/// road map with 8 landmarks and the 8x8 variance grid with 4.
struct RepairMap {
  const char* name;
  graph::Graph graph;
  size_t landmarks;
};
std::vector<RepairMap> RepairMaps() {
  auto rm = graph::GenerateMinneapolisLike();
  EXPECT_TRUE(rm.ok());
  std::vector<RepairMap> maps;
  maps.push_back({"minneapolis", std::move(rm->graph), 8});
  maps.push_back({"grid8", Grid(8, GridCostModel::kVariance20), 4});
  return maps;
}

/// Runs `rounds` batches per map and seed; `make(rng, g, round)` returns
/// a batch and whether to revalidate after it.
template <typename Make>
void RunRepairSequence(int rounds, Make make) {
  for (RepairMap& map : RepairMaps()) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(::testing::Message() << map.name << " seed " << seed);
      RepairDriver driver(map.graph, map.landmarks);
      Rng rng(seed);
      for (int round = 0; round < rounds; ++round) {
        SCOPED_TRACE(::testing::Message() << "round " << round);
        const auto [batch, revalidate] = make(rng, driver.graph(), round);
        driver.Apply(batch, revalidate);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(LandmarkRepairTest, DecreasesOnlyMatchRecompute) {
  RunRepairSequence(15, [](Rng& rng, const graph::Graph& g, int) {
    return std::pair{RandomBatch(g, rng, 8, 0.3, 0.95), true};
  });
}

TEST(LandmarkRepairTest, IncreasesOnlyMatchRecompute) {
  RunRepairSequence(15, [](Rng& rng, const graph::Graph& g, int) {
    return std::pair{RandomBatch(g, rng, 8, 1.05, 5.0), true};
  });
}

TEST(LandmarkRepairTest, IncreasesHeldUntilADecreaseMatchRecompute) {
  // Three increase-only batches wait in the pending list; every fourth
  // batch mixes in decreases and repairs all of them at once.
  RunRepairSequence(24, [](Rng& rng, const graph::Graph& g, int round) {
    if (round % 4 != 3) {
      return std::pair{RandomBatch(g, rng, 8, 1.05, 5.0), false};
    }
    std::vector<EdgeCostUpdate> batch = RandomBatch(g, rng, 4, 1.05, 5.0);
    for (const EdgeCostUpdate& e : RandomBatch(g, rng, 4, 0.3, 0.95)) {
      batch.push_back(e);
    }
    return std::pair{batch, true};
  });
}

TEST(LandmarkRepairTest, SameEdgeTwiceInOneBatchMatchesRecompute) {
  // Each edge is set twice in its batch, in both directions of change;
  // the pending list keeps the cost the table was computed at. Odd rounds
  // hold their batch, so an edge may also change across batches.
  RunRepairSequence(16, [](Rng& rng, const graph::Graph& g, int round) {
    std::vector<EdgeCostUpdate> batch;
    for (const EdgeCostUpdate& e : RandomBatch(g, rng, 4, 0.3, 3.0)) {
      batch.push_back(e);
      batch.push_back({e.u, e.v, e.cost * rng.UniformDouble(0.3, 3.0)});
    }
    return std::pair{batch, round % 2 == 0};
  });
}

TEST(LandmarkRepairTest, ClosedStreetsAndReopenedStreetsMatchRecompute) {
  for (RepairMap& map : RepairMaps()) {
    SCOPED_TRACE(map.name);
    RepairDriver driver(map.graph, map.landmarks);
    Rng rng(7);
    // Close every street into a few nodes (they become unreachable) plus
    // random streets, then reopen them in two steps: back to their cost,
    // then below it.
    std::vector<EdgeCostUpdate> close;
    std::vector<EdgeCostUpdate> reopen;
    const graph::Graph& g = driver.graph();
    for (const NodeId target : {NodeId{0}, NodeId{9}, NodeId{30}}) {
      for (NodeId u = 0; u < static_cast<NodeId>(g.num_nodes()); ++u) {
        for (const graph::Edge& e : g.Neighbors(u)) {
          if (e.to != target) continue;
          close.push_back({u, target, kInf});
          reopen.push_back({u, target, e.cost});
        }
      }
    }
    for (const EdgeCostUpdate& e : RandomBatch(g, rng, 6, 1.0, 1.0)) {
      close.push_back({e.u, e.v, kInf});
      reopen.push_back(e);
    }
    driver.Apply(close, true);
    ASSERT_FALSE(HasFailure());
    driver.Apply(reopen, true);
    ASSERT_FALSE(HasFailure());
    for (EdgeCostUpdate& e : reopen) e.cost *= 0.5;
    driver.Apply(reopen, true);
  }
}

TEST(LandmarkRepairTest, NodesNoLandmarkReachesMatchRecompute) {
  // The 8x8 grid plus: a source-only node (nothing reaches it), a
  // sink-only node (it reaches nothing), an isolated node and a separate
  // two-node street. Updates hit their edges as well as the grid's.
  graph::Graph g = Grid(8, GridCostModel::kVariance20);
  const NodeId source_only = g.AddNode(-1.0, -1.0);
  const NodeId sink_only = g.AddNode(9.0, 9.0);
  g.AddNode(20.0, 20.0);  // isolated
  const NodeId p = g.AddNode(30.0, 30.0);
  const NodeId q = g.AddNode(31.0, 30.0);
  ASSERT_TRUE(g.AddEdge(source_only, 0, 2.0).ok());
  ASSERT_TRUE(g.AddEdge(63, sink_only, 2.0).ok());
  ASSERT_TRUE(g.AddUndirectedEdge(p, q, 1.0).ok());
  RepairDriver driver(g, 4);
  Rng rng(11);
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    std::vector<EdgeCostUpdate> batch =
        RandomBatch(driver.graph(), rng, 6, 0.3, 3.0);
    const double f = rng.UniformDouble(0.3, 3.0);
    batch.push_back({source_only, 0, round % 3 == 1 ? kInf : 2.0 * f});
    batch.push_back({63, sink_only, round % 3 == 2 ? kInf : 2.0 * f});
    batch.push_back({p, q, f});
    driver.Apply(batch, true);
    ASSERT_FALSE(HasFailure());
  }
}

TEST(LandmarkRepairTest, RejectsAnotherGraphOrAMissingEdge) {
  const graph::Graph g = Grid(4, GridCostModel::kUniform);
  const graph::Graph rev = graph::ReverseOf(g);
  const LandmarkSet set = RecomputeLandmarks(Select(g, 2)->landmarks(), g);
  const graph::Graph other = Grid(5, GridCostModel::kUniform);
  EXPECT_TRUE(RepairLandmarks(set, other, graph::ReverseOf(other), {})
                  .status()
                  .IsInvalidArgument());
  const std::vector<ChangedEdge> missing{{0, 15, 1.0}};  // not a street
  EXPECT_TRUE(
      RepairLandmarks(set, g, rev, missing).status().IsInvalidArgument());
  auto unchanged = RepairLandmarks(set, g, rev, {});
  ASSERT_TRUE(unchanged.ok());
  ExpectEqualsRecompute(*unchanged, g);
}

/// The served table through RouteServer's write path: increase-only
/// batches leave it untouched, and after each decreasing ApplyUpdates it
/// equals the oracle on the published snapshot, pending increases and
/// closed streets included.
TEST(RouteServerLandmarkRepairTest, ServedTableEqualsRecomputeAfterDecreases) {
  const graph::Graph g = Grid(8, GridCostModel::kVariance20);
  RouteServer::Options opt;
  opt.num_workers = 2;
  opt.num_landmarks = 4;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());
  Rng rng(5);
  uint64_t revalidations = 0;
  for (int round = 0; round < 24; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    const std::shared_ptr<const graph::Graph> before = server.snapshot();
    const std::shared_ptr<const LandmarkSet> table = server.landmark_set();
    std::vector<EdgeCostUpdate> batch =
        RandomBatch(*before, rng, 4, 1.05, 5.0);
    const bool decrease = round % 3 == 2;
    if (decrease) {
      for (const EdgeCostUpdate& e : RandomBatch(*before, rng, 2, 0.3, 0.9)) {
        batch.push_back(e);
        batch.push_back({e.u, e.v, e.cost * 0.9});  // the same edge twice
      }
    }
    if (round == 4) batch.push_back({3, 4, kInf});  // closed ...
    if (round == 8) batch.push_back({3, 4, 0.5});   // ... and reopened
    ASSERT_TRUE(server.ApplyUpdates(batch).ok());
    const bool lowered = decrease || round == 8;
    if (lowered) ++revalidations;
    EXPECT_EQ(server.ingest_stats().landmark_revalidations, revalidations);
    if (!lowered) {
      EXPECT_EQ(server.landmark_set(), table);  // still admissible as is
      continue;
    }
    ExpectEqualsRecompute(*server.landmark_set(), *server.snapshot());
    ASSERT_FALSE(HasFailure());
  }
}

}  // namespace
}  // namespace atis::core
