// Cross-layout parity: the physical store layout is a performance knob
// only — every algorithm must return bit-identical answers (path, cost,
// iteration count) whether the heap files are in the paper's row order or
// Hilbert-clustered, run statement at a time or served (pool kept warm
// between statements). This is the correctness half of bench_locality's
// contract, run over the paper's grid family and the Minneapolis-like
// road map.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/db_search.h"
#include "core/landmarks.h"
#include "graph/grid_generator.h"
#include "graph/relational_graph.h"
#include "graph/road_map_generator.h"
#include "graph/spatial_layout.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace atis::core {
namespace {

using graph::NodeId;
using graph::RelationalGraphStore;
using graph::StoreLayout;

struct TripSpec {
  NodeId source;
  NodeId destination;
};

/// One store + engine, layout- and execution-mode-configurable, with the
/// ALT landmark table installed so Version 4 runs too.
struct LayoutFixture {
  LayoutFixture(const graph::Graph& g, StoreLayout layout,
                bool statement_at_a_time)
      : pool(&disk, 256), store(&pool) {
    EXPECT_TRUE(store.Load(g, {layout}).ok());
    DbSearchOptions options;
    options.statement_at_a_time = statement_at_a_time;
    engine = std::make_unique<DbSearchEngine>(&store, &pool, options);
    LandmarkOptions lm;
    lm.num_landmarks = 4;
    auto set = SelectLandmarks(WithStoredEdgeCosts(g), lm);
    EXPECT_TRUE(set.ok());
    auto table = PersistAndLoadLandmarks(*set, &store);
    EXPECT_TRUE(table.ok());
    EXPECT_TRUE(engine
                    ->EnableLandmarks(MakeLandmarkEstimator(
                        std::move(table).value(), /*euclidean_scale=*/1.0))
                    .ok());
  }

  storage::DiskManager disk;
  storage::BufferPool pool;
  RelationalGraphStore store;
  std::unique_ptr<DbSearchEngine> engine;
};

Result<PathResult> RunAlgorithm(DbSearchEngine& engine, int algo,
                                const TripSpec& trip) {
  switch (algo) {
    case 0:
      return engine.Iterative(trip.source, trip.destination);
    case 1:
      return engine.Dijkstra(trip.source, trip.destination);
    default:
      return engine.AStar(trip.source, trip.destination,
                          static_cast<AStarVersion>(algo - 1));
  }
}

const char* AlgorithmLabel(int algo) {
  switch (algo) {
    case 0:
      return "iterative";
    case 1:
      return "dijkstra";
    case 2:
      return "astar-v1";
    case 3:
      return "astar-v2";
    case 4:
      return "astar-v3";
    default:
      return "astar-v4";
  }
}

void ExpectParity(const graph::Graph& g, const std::vector<TripSpec>& trips,
                  int min_algo) {
  // Reference: the paper-mode store (row order, statement-at-a-time).
  LayoutFixture reference(g, StoreLayout::kRowOrder,
                          /*statement_at_a_time=*/true);
  // Probes: Hilbert in the paper's execution model and in the served one.
  LayoutFixture hilbert(g, StoreLayout::kHilbert,
                        /*statement_at_a_time=*/true);
  LayoutFixture hilbert_served(g, StoreLayout::kHilbert,
                               /*statement_at_a_time=*/false);
  const std::pair<const char*, LayoutFixture*> probes[] = {
      {"hilbert", &hilbert},
      {"hilbert served", &hilbert_served},
  };

  for (const TripSpec& trip : trips) {
    for (int algo = min_algo; algo <= 5; ++algo) {
      auto expected = RunAlgorithm(*reference.engine, algo, trip);
      ASSERT_TRUE(expected.ok()) << AlgorithmLabel(algo);
      for (const auto& [label, fixture] : probes) {
        auto got = RunAlgorithm(*fixture->engine, algo, trip);
        ASSERT_TRUE(got.ok()) << AlgorithmLabel(algo) << " under " << label;
        EXPECT_EQ(got->found, expected->found)
            << AlgorithmLabel(algo) << " under " << label;
        EXPECT_EQ(got->cost, expected->cost)  // bit-identical, no epsilon
            << AlgorithmLabel(algo) << " under " << label;
        EXPECT_EQ(got->path, expected->path)
            << AlgorithmLabel(algo) << " under " << label;
        EXPECT_EQ(got->stats.iterations, expected->stats.iterations)
            << AlgorithmLabel(algo) << " under " << label;
      }
    }
  }
}

class GridLayoutParity : public ::testing::TestWithParam<int> {};

TEST_P(GridLayoutParity, AllAlgorithmsBitIdenticalAcrossLayouts) {
  const int k = GetParam();
  auto g = graph::GridGraphGenerator::Generate(
      {k, graph::GridCostModel::kVariance20, 0.2, 0.1, 1993});
  ASSERT_TRUE(g.ok());
  const std::vector<TripSpec> trips = {
      {graph::GridGraphGenerator::DiagonalQuery(k).source,
       graph::GridGraphGenerator::DiagonalQuery(k).destination},
      {graph::GridGraphGenerator::SemiDiagonalQuery(k).source,
       graph::GridGraphGenerator::SemiDiagonalQuery(k).destination},
  };
  // Run all six algorithms on the small grid; the Iterative algorithm's
  // per-round join makes it too slow above k=10 (matching the sizing of
  // the DbEquivalence sweep), so larger grids start at Dijkstra.
  ExpectParity(*g, trips, /*min_algo=*/k <= 10 ? 0 : 1);
}

INSTANTIATE_TEST_SUITE_P(GridSizes, GridLayoutParity,
                         ::testing::Values(10, 20, 30));

TEST(RoadMapLayoutParity, AllAlgorithmsBitIdenticalAcrossLayouts) {
  auto rm = graph::GenerateMinneapolisLike();
  ASSERT_TRUE(rm.ok());
  const std::vector<TripSpec> trips = {{rm->a, rm->b}, {rm->g, rm->d}};
  ExpectParity(rm->graph, trips, /*min_algo=*/1);
}

}  // namespace
}  // namespace atis::core
