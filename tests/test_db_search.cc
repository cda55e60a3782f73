#include "core/db_search.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <ostream>
#include <string>
#include <thread>

#include "core/batch_engine.h"
#include "core/landmarks.h"
#include "core/memory_search.h"
#include "core/overlay.h"
#include "core/route_service.h"
#include "core/sssp.h"
#include "graph/grid_generator.h"
#include "graph/road_map_generator.h"
#include "obs/trace.h"
#include "util/random.h"

namespace atis::core {
namespace {

using graph::GridCostModel;
using graph::GridGraphGenerator;
using graph::GridQuery;
using graph::NodeId;
using graph::RelationalGraphStore;

enum class QueryKind { kHorizontal, kSemiDiagonal, kDiagonal };

GridQuery MakeQuery(QueryKind kind, int k) {
  switch (kind) {
    case QueryKind::kHorizontal:
      return GridGraphGenerator::HorizontalQuery(k);
    case QueryKind::kSemiDiagonal:
      return GridGraphGenerator::SemiDiagonalQuery(k);
    case QueryKind::kDiagonal:
      return GridGraphGenerator::DiagonalQuery(k);
  }
  return {0, 0};
}

/// Owns one database-resident copy of a grid graph.
struct DbFixture {
  explicit DbFixture(const graph::Graph& g, DbSearchOptions options = {})
      : pool(&disk, 64), store(&pool) {
    EXPECT_TRUE(store.Load(g).ok());
    engine = std::make_unique<DbSearchEngine>(&store, &pool, options);
  }
  storage::DiskManager disk;
  storage::BufferPool pool;
  RelationalGraphStore store;
  std::unique_ptr<DbSearchEngine> engine;
};

// ---------------------------------------------------------------------------
// Equivalence sweep: the database-resident implementations must agree with
// the in-memory reference on both path cost and iteration count, across
// grid sizes, cost models, and query shapes.

class DbEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<int, GridCostModel, QueryKind>> {};

TEST_P(DbEquivalenceTest, DijkstraMatchesMemory) {
  const auto [k, model, kind] = GetParam();
  auto g = GridGraphGenerator::Generate({k, model});
  ASSERT_TRUE(g.ok());
  const GridQuery q = MakeQuery(kind, k);
  DbFixture db(*g);
  auto db_r = db.engine->Dijkstra(q.source, q.destination);
  ASSERT_TRUE(db_r.ok());
  const auto mem_r = DijkstraSearch(*g, q.source, q.destination);
  EXPECT_EQ(db_r->stats.iterations, mem_r.stats.iterations);
  EXPECT_NEAR(db_r->cost, mem_r.cost, 1e-4);  // f32 storage rounding
  EXPECT_EQ(db_r->path, mem_r.path);
}

TEST_P(DbEquivalenceTest, AStarV3MatchesMemoryManhattan) {
  const auto [k, model, kind] = GetParam();
  auto g = GridGraphGenerator::Generate({k, model});
  ASSERT_TRUE(g.ok());
  const GridQuery q = MakeQuery(kind, k);
  DbFixture db(*g);
  auto db_r = db.engine->AStar(q.source, q.destination, AStarVersion::kV3);
  ASSERT_TRUE(db_r.ok());
  auto man = MakeEstimator(EstimatorKind::kManhattan);
  const auto mem_r = AStarSearch(*g, q.source, q.destination, *man);
  EXPECT_EQ(db_r->stats.iterations, mem_r.stats.iterations);
  EXPECT_NEAR(db_r->cost, mem_r.cost, 1e-4);
}

TEST_P(DbEquivalenceTest, IterativeMatchesMemory) {
  const auto [k, model, kind] = GetParam();
  auto g = GridGraphGenerator::Generate({k, model});
  ASSERT_TRUE(g.ok());
  const GridQuery q = MakeQuery(kind, k);
  DbFixture db(*g);
  auto db_r = db.engine->Iterative(q.source, q.destination);
  ASSERT_TRUE(db_r.ok());
  const auto mem_r = IterativeBfsSearch(*g, q.source, q.destination);
  EXPECT_EQ(db_r->stats.iterations, mem_r.stats.iterations);
  EXPECT_NEAR(db_r->cost, mem_r.cost, 1e-4);
}

TEST_P(DbEquivalenceTest, AStarV1AndV2MatchMemoryEuclidean) {
  // Same Euclidean estimator, two frontier implementations: both must
  // expand the same node sequence as the in-memory engine (costs are
  // f32 in the store, so comparisons carry a small tolerance).
  const auto [k, model, kind] = GetParam();
  auto g = GridGraphGenerator::Generate({k, model});
  ASSERT_TRUE(g.ok());
  const GridQuery q = MakeQuery(kind, k);
  DbFixture db(*g);
  auto v1 = db.engine->AStar(q.source, q.destination, AStarVersion::kV1);
  auto v2 = db.engine->AStar(q.source, q.destination, AStarVersion::kV2);
  ASSERT_TRUE(v1.ok() && v2.ok());
  auto eu = MakeEstimator(EstimatorKind::kEuclidean);
  const auto mem_r = AStarSearch(*g, q.source, q.destination, *eu);
  EXPECT_EQ(v1->stats.iterations, mem_r.stats.iterations);
  EXPECT_EQ(v2->stats.iterations, mem_r.stats.iterations);
  EXPECT_NEAR(v1->cost, mem_r.cost, 1e-4);
  EXPECT_NEAR(v2->cost, mem_r.cost, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    GridSweep, DbEquivalenceTest,
    ::testing::Combine(::testing::Values(6, 10),
                       ::testing::Values(GridCostModel::kUniform,
                                         GridCostModel::kVariance20,
                                         GridCostModel::kSkewed),
                       ::testing::Values(QueryKind::kHorizontal,
                                         QueryKind::kSemiDiagonal,
                                         QueryKind::kDiagonal)));

// ---------------------------------------------------------------------------
// A* version behaviour (Section 5.3).

TEST(DbAStarVersionsTest, AllVersionsAgreeOnOptimalCost) {
  auto g = GridGraphGenerator::Generate({10, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  const auto q = GridGraphGenerator::DiagonalQuery(10);
  DbFixture db(*g);
  auto v1 = db.engine->AStar(q.source, q.destination, AStarVersion::kV1);
  auto v2 = db.engine->AStar(q.source, q.destination, AStarVersion::kV2);
  auto v3 = db.engine->AStar(q.source, q.destination, AStarVersion::kV3);
  ASSERT_TRUE(v1.ok() && v2.ok() && v3.ok());
  EXPECT_NEAR(v1->cost, v2->cost, 1e-4);
  EXPECT_NEAR(v2->cost, v3->cost, 1e-4);
}

TEST(DbAStarVersionsTest, V1AndV2SameIterationsDifferentCost) {
  // Same estimator (Euclidean), different frontier implementation: the
  // node expansion order is identical but version 1 pays APPEND/DELETE
  // and index maintenance on its separate relations.
  auto g = GridGraphGenerator::Generate({10, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  const auto q = GridGraphGenerator::DiagonalQuery(10);
  DbFixture db(*g);
  auto v1 = db.engine->AStar(q.source, q.destination, AStarVersion::kV1);
  auto v2 = db.engine->AStar(q.source, q.destination, AStarVersion::kV2);
  ASSERT_TRUE(v1.ok() && v2.ok());
  EXPECT_EQ(v1->stats.iterations, v2->stats.iterations);
  EXPECT_NE(v1->stats.cost_units, v2->stats.cost_units);
}

TEST(DbAStarVersionsTest, V3BeatsV2OnGrids) {
  // Figure 10: the Manhattan estimator (v3) explores no more than the
  // Euclidean one (v2) on grid graphs, and costs no more.
  auto g = GridGraphGenerator::Generate({10, GridCostModel::kUniform});
  ASSERT_TRUE(g.ok());
  const auto q = GridGraphGenerator::DiagonalQuery(10);
  DbFixture db(*g);
  auto v2 = db.engine->AStar(q.source, q.destination, AStarVersion::kV2);
  auto v3 = db.engine->AStar(q.source, q.destination, AStarVersion::kV3);
  ASSERT_TRUE(v2.ok() && v3.ok());
  EXPECT_LE(v3->stats.iterations, v2->stats.iterations);
  EXPECT_LT(v3->stats.cost_units, v2->stats.cost_units);
}

TEST(DbAStarVersionsTest, V4WithAZeroEstimatorExpandsLikeDijkstra) {
  // Any estimator plugs in through EnableLandmarks; with the zero
  // estimator, best-first search is Dijkstra's expansion order.
  auto g = GridGraphGenerator::Generate({6, GridCostModel::kUniform});
  ASSERT_TRUE(g.ok());
  DbFixture db(*g);
  ASSERT_TRUE(
      db.engine->EnableLandmarks(MakeEstimator(EstimatorKind::kZero)).ok());
  auto r = db.engine->AStar(0, 35, AStarVersion::kV4);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->found);
  auto dj = db.engine->Dijkstra(0, 35);
  ASSERT_TRUE(dj.ok());
  EXPECT_EQ(r->stats.iterations, dj->stats.iterations);
  EXPECT_EQ(r->cost, dj->cost);
}

TEST(DbAStarVersionsTest, V1DuplicatePoliciesAgreeOnCost) {
  auto g = GridGraphGenerator::Generate({8, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  const auto q = GridGraphGenerator::DiagonalQuery(8);
  double cost_avoid = -1;
  uint64_t iters_avoid = 0;
  for (DuplicatePolicy policy :
       {DuplicatePolicy::kAvoid, DuplicatePolicy::kEliminate,
        DuplicatePolicy::kAllow}) {
    DbSearchOptions opt;
    opt.duplicate_policy = policy;
    DbFixture db(*g, opt);
    auto r = db.engine->AStar(q.source, q.destination, AStarVersion::kV1);
    ASSERT_TRUE(r.ok());
    if (policy == DuplicatePolicy::kAvoid) {
      cost_avoid = r->cost;
      iters_avoid = r->stats.iterations;
    } else {
      EXPECT_NEAR(r->cost, cost_avoid, 1e-6);
      if (policy == DuplicatePolicy::kAllow) {
        // Duplicates cause redundant iterations (Section 4).
        EXPECT_GE(r->stats.iterations, iters_avoid);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cost accounting.

TEST(DbCostAccountingTest, IoAndCostUnitsPopulated) {
  auto g = GridGraphGenerator::Generate({8, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  DbFixture db(*g);
  auto r = db.engine->Dijkstra(0, 63);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.io.blocks_read, 0u);
  EXPECT_GT(r->stats.io.blocks_written, 0u);
  EXPECT_GT(r->stats.cost_units, 0.0);
  EXPECT_NEAR(r->stats.cost_units,
              r->stats.io.Cost(db.engine->options().cost_params), 1e-9);
}

TEST(DbCostAccountingTest, CachedModeIsCheaperThanStatementAtATime) {
  auto g = GridGraphGenerator::Generate({8, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  DbSearchOptions cached;
  cached.statement_at_a_time = false;
  DbFixture strict_db(*g);
  DbFixture cached_db(*g, cached);
  auto strict = strict_db.engine->Dijkstra(0, 63);
  auto relaxed = cached_db.engine->Dijkstra(0, 63);
  ASSERT_TRUE(strict.ok() && relaxed.ok());
  EXPECT_EQ(strict->stats.iterations, relaxed->stats.iterations);
  EXPECT_LT(relaxed->stats.cost_units, strict->stats.cost_units);
}

TEST(DbCostAccountingTest, LongerPathsCostMore) {
  auto g = GridGraphGenerator::Generate({10, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  DbFixture db(*g);
  auto near = db.engine->AStar(0, 1, AStarVersion::kV3);
  auto far = db.engine->AStar(
      0, GridGraphGenerator::DiagonalQuery(10).destination,
      AStarVersion::kV3);
  ASSERT_TRUE(near.ok() && far.ok());
  EXPECT_LT(near->stats.cost_units, far->stats.cost_units);
}

TEST(DbCostAccountingTest, V1ChargesTemporaryRelationLifecycle) {
  auto g = GridGraphGenerator::Generate({6, GridCostModel::kUniform});
  ASSERT_TRUE(g.ok());
  DbFixture db(*g);
  auto r = db.engine->AStar(0, 35, AStarVersion::kV1);
  ASSERT_TRUE(r.ok());
  // R1 + F created and dropped.
  EXPECT_GE(r->stats.io.relations_created, 2u);
  EXPECT_GE(r->stats.io.relations_deleted, 2u);
}

// ---------------------------------------------------------------------------
// Iterative-specific behaviour.

TEST(DbIterativeTest, ForcedJoinStrategiesAgree) {
  auto g = GridGraphGenerator::Generate({8, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  const auto q = GridGraphGenerator::DiagonalQuery(8);
  uint64_t auto_iters = 0;
  double auto_cost = -1;
  for (auto strategy :
       {relational::JoinStrategy::kAuto, relational::JoinStrategy::kHash,
        relational::JoinStrategy::kNestedLoop,
        relational::JoinStrategy::kSortMerge,
        relational::JoinStrategy::kPrimaryKey}) {
    DbSearchOptions opt;
    opt.join_strategy = strategy;
    DbFixture db(*g, opt);
    auto r = db.engine->Iterative(q.source, q.destination);
    ASSERT_TRUE(r.ok());
    if (strategy == relational::JoinStrategy::kAuto) {
      auto_iters = r->stats.iterations;
      auto_cost = r->cost;
    } else {
      EXPECT_EQ(r->stats.iterations, auto_iters);
      EXPECT_NEAR(r->cost, auto_cost, 1e-6);
    }
  }
}

TEST(DbIterativeTest, IterationCountInsensitiveToQuery) {
  auto g = GridGraphGenerator::Generate({10, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  DbFixture db(*g);
  auto a = db.engine->Iterative(0, 9);
  auto b = db.engine->Iterative(0, 99);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->stats.iterations, b->stats.iterations);
  EXPECT_EQ(a->stats.iterations, 19u);  // Table 5, 10x10
}

// ---------------------------------------------------------------------------
// Edge cases on the database substrate.

TEST(DbEdgeCaseTest, SourceEqualsDestination) {
  auto g = GridGraphGenerator::Generate({5, GridCostModel::kUniform});
  ASSERT_TRUE(g.ok());
  DbFixture db(*g);
  for (auto r : {db.engine->Dijkstra(7, 7),
                 db.engine->AStar(7, 7, AStarVersion::kV3),
                 db.engine->AStar(7, 7, AStarVersion::kV1),
                 db.engine->Iterative(7, 7)}) {
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->found);
    EXPECT_EQ(r->cost, 0.0);
  }
}

TEST(DbEdgeCaseTest, UnreachableDestination) {
  graph::Graph g;
  g.AddNode(0, 0);
  g.AddNode(1, 0);
  g.AddNode(5, 5);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 0, 1.0).ok());
  DbFixture db(g);
  for (auto r : {db.engine->Dijkstra(0, 2),
                 db.engine->AStar(0, 2, AStarVersion::kV3),
                 db.engine->AStar(0, 2, AStarVersion::kV1),
                 db.engine->Iterative(0, 2)}) {
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->found);
    EXPECT_TRUE(r->path.empty());
  }
}

TEST(DbEdgeCaseTest, MissingNodeIsError) {
  auto g = GridGraphGenerator::Generate({4, GridCostModel::kUniform});
  ASSERT_TRUE(g.ok());
  DbFixture db(*g);
  EXPECT_FALSE(db.engine->Dijkstra(0, 999).ok());
}

TEST(DbEdgeCaseTest, BackToBackSearchesAreIndependent) {
  // ResetSearchState must fully isolate consecutive runs.
  auto g = GridGraphGenerator::Generate({6, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  DbFixture db(*g);
  auto first = db.engine->Dijkstra(0, 35);
  auto second = db.engine->Dijkstra(0, 35);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->stats.iterations, second->stats.iterations);
  EXPECT_NEAR(first->cost, second->cost, 1e-9);
  EXPECT_EQ(first->path, second->path);
}

TEST(DbEdgeCaseTest, OptimalityFlagForV3) {
  auto g = GridGraphGenerator::Generate({5, GridCostModel::kUniform});
  ASSERT_TRUE(g.ok());
  DbSearchOptions opt;
  opt.estimator_known_admissible = false;
  DbFixture db(*g, opt);
  auto r = db.engine->AStar(0, 24, AStarVersion::kV3);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->optimality_guaranteed);
  auto dj = db.engine->Dijkstra(0, 24);
  ASSERT_TRUE(dj.ok());
  EXPECT_TRUE(dj->optimality_guaranteed);
}

// ---------------------------------------------------------------------------
// Unreachable destinations under the landmark-guided versions. A landmark
// that proves no path exists makes h, and so f, +inf. Version 4 must never
// select such a row (picking among them by the larger-g tie-break reopened
// nodes for millions of iterations), and Version 5's overlay search must
// stop at the first one.

/// A Minneapolis-like store whose engine serves Version 4 (8 landmarks,
/// persisted through the store) and Version 5 (order-3 overlay), set up
/// the way RouteServer sets up its workers.
struct LandmarkOverlayDb {
  LandmarkOverlayDb() : pool(&disk, 512), store(&pool) {}

  Status Start(const graph::Graph& g, bool statement_at_a_time) {
    ATIS_RETURN_NOT_OK(store.Load(g));
    DbSearchOptions options;
    options.statement_at_a_time = statement_at_a_time;
    engine = std::make_unique<DbSearchEngine>(&store, &pool, options);
    LandmarkOptions lm;
    lm.num_landmarks = 8;
    ATIS_ASSIGN_OR_RETURN(LandmarkSet selected,
                          SelectLandmarks(WithStoredEdgeCosts(g), lm));
    ATIS_ASSIGN_OR_RETURN(auto table,
                          PersistAndLoadLandmarks(selected, &store));
    ATIS_RETURN_NOT_OK(engine->EnableLandmarks(
        MakeLandmarkEstimator(std::move(table), /*euclidean_scale=*/1.0)));
    ATIS_ASSIGN_OR_RETURN(OverlayTopology built,
                          OverlayTopology::Build(g, OverlayOptions{3}));
    ATIS_ASSIGN_OR_RETURN(auto topology,
                          PersistAndLoadOverlayTopology(built, &store, g));
    ATIS_ASSIGN_OR_RETURN(
        auto customization,
        CustomizeOverlay(*topology, WithStoredEdgeCosts(g), 1));
    return engine->EnableOverlay(std::make_shared<OverlayIndex>(
        OverlayIndex{std::move(topology), std::move(customization)}));
  }

  storage::DiskManager disk;
  storage::BufferPool pool;
  RelationalGraphStore store;
  std::unique_ptr<DbSearchEngine> engine;
};

TEST(DbUnreachableTest, LandmarkVersionsGiveUpNoLaterThanV2) {
  auto rm = graph::GenerateMinneapolisLike();
  ASSERT_TRUE(rm.ok());
  const graph::Graph& g = rm->graph;
  // Node 0 reaches most of the map but not, e.g., node 170.
  const NodeId source = 0;
  auto tree = SingleSourceDijkstra(g, source);
  ASSERT_TRUE(tree.ok());
  ASSERT_FALSE(tree->Reaches(170));

  LandmarkOverlayDb served;
  LandmarkOverlayDb statement_at_a_time;
  ASSERT_TRUE(served.Start(g, false).ok());
  ASSERT_TRUE(statement_at_a_time.Start(g, true).ok());

  size_t reachable = 0;
  for (NodeId d = 0; d < static_cast<NodeId>(g.num_nodes()); ++d) {
    if (tree->Reaches(d)) ++reachable;
  }
  ASSERT_GT(reachable, g.num_nodes() / 2);

  for (NodeId d = 0; d < static_cast<NodeId>(g.num_nodes()); ++d) {
    if (tree->Reaches(d)) continue;
    // v2's iterations do not depend on the engine's statement mode.
    auto v2 = served.engine->AStar(source, d, AStarVersion::kV2);
    ASSERT_TRUE(v2.ok());
    ASSERT_FALSE(v2->found);
    for (LandmarkOverlayDb* db : {&served, &statement_at_a_time}) {
      for (const AStarVersion v : {AStarVersion::kV4, AStarVersion::kV5}) {
        // The deadline turns a regression into a failure, not a hang.
        auto r = db->engine->AStar(source, d, v, Deadline::After(10.0));
        ASSERT_TRUE(r.ok()) << AStarVersionName(v) << " 0->" << d << ": "
                            << r.status().ToString();
        EXPECT_FALSE(r->found) << AStarVersionName(v) << " 0->" << d;
        EXPECT_LE(r->stats.iterations, v2->stats.iterations)
            << AStarVersionName(v) << " 0->" << d;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Served Version 4 runs on the shortest-path kernel instead of R's status
// attribute. Its answers and counters must equal the statement-at-a-time
// engine's exactly, and it must never write R.

storage::IoCounters Sum(const SearchStats::IoBreakdown& b) {
  storage::IoCounters total;
  for (const storage::IoCounters* part :
       {&b.init, &b.selection, &b.marking, &b.adjacency, &b.relaxation,
        &b.cleanup}) {
    total += *part;
  }
  return total;
}

void ExpectSameIo(const storage::IoCounters& got,
                  const storage::IoCounters& want, const std::string& what) {
  EXPECT_EQ(got.blocks_read, want.blocks_read) << what;
  EXPECT_EQ(got.blocks_written, want.blocks_written) << what;
  EXPECT_EQ(got.relations_created, want.relations_created) << what;
  EXPECT_EQ(got.relations_deleted, want.relations_deleted) << what;
}

void ExpectSameAnswer(const PathResult& got, const PathResult& want,
                      const std::string& what) {
  EXPECT_EQ(got.found, want.found) << what;
  EXPECT_EQ(got.cost, want.cost) << what;  // bit-identical, no epsilon
  EXPECT_EQ(got.path, want.path) << what;
  EXPECT_EQ(got.stats.iterations, want.stats.iterations) << what;
  EXPECT_EQ(got.stats.nodes_generated, want.stats.nodes_generated) << what;
  EXPECT_EQ(got.stats.nodes_improved, want.stats.nodes_improved) << what;
  EXPECT_EQ(got.stats.reopenings, want.stats.reopenings) << what;
}

/// 200 seeded uniform pairs over the Minneapolis-like map, unroutable
/// ones included.
std::vector<std::pair<NodeId, NodeId>> UniformPairs(size_t num_nodes) {
  Rng rng(17);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 200; ++i) {
    const auto hi = static_cast<int64_t>(num_nodes) - 1;
    pairs.emplace_back(static_cast<NodeId>(rng.UniformInt(0, hi)),
                       static_cast<NodeId>(rng.UniformInt(0, hi)));
  }
  return pairs;
}

TEST(DbServedV4Test, EqualsStatementAtATimeAndNeverWritesR) {
  auto rm = graph::GenerateMinneapolisLike();
  ASSERT_TRUE(rm.ok());
  LandmarkOverlayDb served;
  LandmarkOverlayDb paper;
  ASSERT_TRUE(served.Start(rm->graph, /*statement_at_a_time=*/false).ok());
  ASSERT_TRUE(paper.Start(rm->graph, /*statement_at_a_time=*/true).ok());

  size_t found = 0;
  for (const auto& [s, d] : UniformPairs(rm->graph.num_nodes())) {
    const std::string what =
        std::to_string(s) + "->" + std::to_string(d);
    auto want = paper.engine->AStar(s, d, AStarVersion::kV4);
    ASSERT_TRUE(want.ok()) << what;
    if (want->found) ++found;
    for (const bool batched : {false, true}) {
      BatchContext batch(/*batch_id=*/1);
      obs::Tracer tracer(&served.disk, &served.pool);
      Result<PathResult> got = [&] {
        obs::Tracer::InstallScope scope(&tracer);
        return served.engine->AStar(s, d, AStarVersion::kV4, Deadline(),
                                    batched ? &batch : nullptr);
      }();
      ASSERT_TRUE(got.ok()) << what;
      const std::string run = what + (batched ? " batched" : "");
      ExpectSameAnswer(*got, *want, run);
      EXPECT_EQ(got->stats.io.blocks_written, 0u) << run;
      ExpectSameIo(Sum(got->stats.breakdown), got->stats.io, run);
      ExpectSameIo(obs::SumByCategory(tracer, "statement").io, got->stats.io,
                   run);
    }
  }
  // The pairs exercise both outcomes.
  EXPECT_GT(found, 150u);
  EXPECT_LT(found, 200u);
}

TEST(DbServedV4Test, MissingEndpointIsError) {
  auto g = GridGraphGenerator::Generate({5, GridCostModel::kUniform});
  ASSERT_TRUE(g.ok());
  LandmarkOverlayDb served;
  ASSERT_TRUE(served.Start(*g, /*statement_at_a_time=*/false).ok());
  for (const auto& [s, d] : {std::pair<NodeId, NodeId>{0, 25}, {25, 0},
                             {-3, 0}, {0, -3}}) {
    EXPECT_TRUE(served.engine->AStar(s, d, AStarVersion::kV4)
                    .status()
                    .IsNotFound())
        << s << "->" << d;
  }
}

TEST(DbServedV5Test, ReopensAnImprovedBoundaryNode) {
  // On this pair the overlay potential is inconsistent: a settled boundary
  // node is improved later. Settling it again keeps the claimed cost equal
  // to the returned path's; keeping it closed once claimed 22.9418 for a
  // 22.9348 route.
  auto rm = graph::GenerateMinneapolisLike();
  ASSERT_TRUE(rm.ok());
  LandmarkOverlayDb served;
  ASSERT_TRUE(served.Start(rm->graph, /*statement_at_a_time=*/false).ok());
  const graph::Graph rounded = WithStoredEdgeCosts(rm->graph);
  auto r = served.engine->AStar(165, 892, AStarVersion::kV5);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->found);
  EXPECT_GT(r->stats.reopenings, 0u);
  const RouteEvaluation eval = EvaluateRoute(rounded, r->path);
  ASSERT_TRUE(eval.valid);
  EXPECT_NEAR(r->cost, eval.total_cost, 1e-9);
  EXPECT_NEAR(r->cost, DijkstraSearch(rounded, 165, 892).cost, 1e-9);
}

// ---------------------------------------------------------------------------
// Route evaluation of database answers: every algorithm and A* version
// returns a route of existing streets whose evaluation against the stored
// metric (route_service's per-segment report) totals the claimed cost,
// and that cost is the optimum wherever the estimator is admissible.

struct SearchVariant {
  Algorithm algorithm;
  AStarVersion version;  ///< read only for kAStar
};

Result<PathResult> RunVariant(DbSearchEngine& engine,
                              const SearchVariant& variant, NodeId s,
                              NodeId d) {
  switch (variant.algorithm) {
    case Algorithm::kIterative:
      return engine.Iterative(s, d);
    case Algorithm::kDijkstra:
      return engine.Dijkstra(s, d);
    case Algorithm::kAStar:
      return engine.AStar(s, d, variant.version);
  }
  return Status::Internal("unknown algorithm");
}

class DbRouteEvaluationTest
    : public ::testing::TestWithParam<SearchVariant> {
 protected:
  static Result<PathResult> Run(DbSearchEngine& engine, NodeId s, NodeId d) {
    return RunVariant(engine, GetParam(), s, d);
  }

  /// Runs s -> d and checks the answer against the evaluated route and
  /// the in-memory optimum over `rounded` (the stored f32 costs).
  static void ExpectEvaluatesToClaimedCost(DbSearchEngine& engine,
                                           const graph::Graph& rounded,
                                           NodeId s, NodeId d) {
    SCOPED_TRACE(::testing::Message() << s << "->" << d);
    auto r = Run(engine, s, d);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->found);
    ASSERT_FALSE(r->path.empty());
    EXPECT_EQ(r->path.front(), s);
    EXPECT_EQ(r->path.back(), d);

    const RouteEvaluation eval = EvaluateRoute(rounded, r->path);
    ASSERT_TRUE(eval.valid);
    EXPECT_EQ(eval.num_segments, r->path.size() - 1);
    EXPECT_NEAR(eval.total_cost, r->cost, 1e-4);  // f32 path costs
    double previous = 0.0;
    for (const SegmentReport& seg : eval.segments) {
      EXPECT_GT(seg.cumulative_cost, previous);
      previous = seg.cumulative_cost;
    }
    EXPECT_NEAR(previous, eval.total_cost, 1e-9);

    const PathResult best = DijkstraSearch(rounded, s, d);
    const bool manhattan = GetParam().algorithm == Algorithm::kAStar &&
                           GetParam().version == AStarVersion::kV3;
    if (manhattan) {
      // Manhattan distance overestimates diagonal streets: an upper bound.
      EXPECT_GE(r->cost, best.cost - 1e-4);
    } else {
      EXPECT_NEAR(r->cost, best.cost, 1e-4);
    }
  }
};

TEST_P(DbRouteEvaluationTest, GridAnswersEvaluateToTheirClaimedCost) {
  for (const GridCostModel model :
       {GridCostModel::kVariance20, GridCostModel::kSkewed}) {
    SCOPED_TRACE(static_cast<int>(model));
    auto g = GridGraphGenerator::Generate({10, model});
    ASSERT_TRUE(g.ok());
    LandmarkOverlayDb db;
    ASSERT_TRUE(db.Start(*g, /*statement_at_a_time=*/false).ok());
    const graph::Graph rounded = WithStoredEdgeCosts(*g);
    for (const QueryKind kind : {QueryKind::kHorizontal,
                                 QueryKind::kSemiDiagonal,
                                 QueryKind::kDiagonal}) {
      const GridQuery q = MakeQuery(kind, 10);
      ExpectEvaluatesToClaimedCost(*db.engine, rounded, q.source,
                                   q.destination);
      ExpectEvaluatesToClaimedCost(*db.engine, rounded, q.destination,
                                   q.source);
    }
  }
}

TEST_P(DbRouteEvaluationTest, RoadMapAnswersEvaluateToTheirClaimedCost) {
  auto rm = graph::GenerateMinneapolisLike();
  ASSERT_TRUE(rm.ok());
  LandmarkOverlayDb db;
  ASSERT_TRUE(db.Start(rm->graph, /*statement_at_a_time=*/false).ok());
  const graph::Graph rounded = WithStoredEdgeCosts(rm->graph);
  for (const auto& [s, d] :
       {std::pair{rm->g, rm->d}, std::pair{rm->e, rm->f},
        std::pair{rm->c, rm->d}}) {
    ExpectEvaluatesToClaimedCost(*db.engine, rounded, s, d);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryAlgorithm, DbRouteEvaluationTest,
    ::testing::Values(SearchVariant{Algorithm::kIterative, AStarVersion::kV1},
                      SearchVariant{Algorithm::kDijkstra, AStarVersion::kV1},
                      SearchVariant{Algorithm::kAStar, AStarVersion::kV1},
                      SearchVariant{Algorithm::kAStar, AStarVersion::kV2},
                      SearchVariant{Algorithm::kAStar, AStarVersion::kV3},
                      SearchVariant{Algorithm::kAStar, AStarVersion::kV4},
                      SearchVariant{Algorithm::kAStar, AStarVersion::kV5}));

// ---------------------------------------------------------------------------
// Per-thread accounting: a run under an IoMeter::ScopedThreadCounters sink
// (as a RouteServer worker runs its query) charges its SearchStats only
// the blocks its own thread reads. Another thread reads the same disk
// during the runs, straight through the DiskManager so the runs' own block
// counts are untouched; every counter must equal the same query's on an
// identical store nobody else reads.

struct AccountedRun {
  const char* name;
  SearchVariant variant;
  bool statement_at_a_time;
};

void PrintTo(const AccountedRun& run, std::ostream* os) { *os << run.name; }

class DbThreadCountersTest : public ::testing::TestWithParam<AccountedRun> {};

TEST_P(DbThreadCountersTest, SinkChargesTheRunOnlyItsOwnBlocks) {
  auto g = GridGraphGenerator::Generate({10, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  LandmarkOverlayDb quiet;
  LandmarkOverlayDb noisy;
  ASSERT_TRUE(quiet.Start(*g, GetParam().statement_at_a_time).ok());
  ASSERT_TRUE(noisy.Start(*g, GetParam().statement_at_a_time).ok());

  // A slow disk stretches each run over many of the reader's reads. The
  // reader reads a page of its own: the disk leaves concurrent reads and
  // writes of one page to its caller, and the pool writes the store's.
  // Both disks allocate it, so later page ids match.
  noisy.disk.SetLatencyModel(storage::DiskLatencyModel{.read_micros = 20});
  const storage::PageId foreign_page = noisy.disk.AllocatePage();
  ASSERT_EQ(quiet.disk.AllocatePage(), foreign_page);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> foreign_reads{0};
  std::thread reader([&] {
    storage::Page page;
    while (!done.load()) {
      if (noisy.disk.ReadPage(foreign_page, &page).ok()) {
        foreign_reads.fetch_add(1);
      }
    }
  });
  while (foreign_reads.load() == 0) std::this_thread::yield();

  for (const QueryKind kind : {QueryKind::kHorizontal,
                               QueryKind::kSemiDiagonal,
                               QueryKind::kDiagonal}) {
    const GridQuery q = MakeQuery(kind, 10);
    const std::string what = std::to_string(q.source) + "->" +
                             std::to_string(q.destination);
    // Cold pools, so the served engines read blocks too.
    ASSERT_TRUE(quiet.pool.EvictAll().ok());
    ASSERT_TRUE(noisy.pool.EvictAll().ok());
    auto want =
        RunVariant(*quiet.engine, GetParam().variant, q.source, q.destination);
    storage::IoCounters sink;
    Result<PathResult> got = [&] {
      storage::IoMeter::ScopedThreadCounters scope(&sink);
      return RunVariant(*noisy.engine, GetParam().variant, q.source,
                        q.destination);
    }();
    ASSERT_TRUE(want.ok() && got.ok()) << what;
    ExpectSameAnswer(*got, *want, what);
    ExpectSameIo(got->stats.io, want->stats.io, what);
    ExpectSameIo(Sum(got->stats.breakdown), Sum(want->stats.breakdown),
                 what);
    EXPECT_LE(got->stats.io.blocks_read, sink.blocks_read) << what;
    EXPECT_GT(got->stats.io.blocks_read, 0u) << what;
  }
  done.store(true);
  reader.join();
}

INSTANTIATE_TEST_SUITE_P(
    EveryEngine, DbThreadCountersTest,
    ::testing::Values(
        AccountedRun{"Iterative", {Algorithm::kIterative, AStarVersion::kV1},
                     true},
        AccountedRun{"Dijkstra", {Algorithm::kDijkstra, AStarVersion::kV1},
                     true},
        AccountedRun{"SeparateRelationV1",
                     {Algorithm::kAStar, AStarVersion::kV1}, true},
        AccountedRun{"ServedV4", {Algorithm::kAStar, AStarVersion::kV4},
                     false},
        AccountedRun{"OverlayV5", {Algorithm::kAStar, AStarVersion::kV5},
                     false}),
    [](const ::testing::TestParamInfo<AccountedRun>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace atis::core
