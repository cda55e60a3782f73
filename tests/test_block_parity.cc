// Golden block counts of the paper's engines, statement-at-a-time and served.
//
// Every engine that keeps its working state in the node relation R
// (Iterative, Dijkstra, A* Versions 1-4) runs one long trip on the paper's
// 20x20 variance-20 grid and on the Minneapolis-like road map, under both
// physical layouts. The expected values below were recorded from the
// Tuple-at-a-time relational operators; the zero-copy row access that
// replaced them must fetch and dirty exactly the same blocks, so block
// reads and writes, temporary relations, iterations, path and cost all stay
// bit-identical. A mismatch prints the run's actual row in the table's own
// format.
//
// The second table covers served mode, as the benchmark runs the engines
// (paper_mix's five, and version 4 on the shortest-path kernel as the
// serving workloads run it): statement-at-a-time off, so statements share
// one 16-frame, single-shard LRU pool, on the Hilbert layout, over a
// sequence of 12-hop grid20 trips. There the blocks a statement reads depend on what earlier
// statements left in the pool, so the table pins the LRU sequence too: a
// statement that fetches a page the old code did not (or in another order)
// changes the counts of later statements. It was recorded from the engines
// that still built a Tuple per join row, C row and R1 row.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/db_search.h"
#include "core/landmarks.h"
#include "graph/grid_generator.h"
#include "graph/relational_graph.h"
#include "graph/road_map_generator.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace atis::core {
namespace {

using graph::NodeId;
using graph::RelationalGraphStore;
using graph::StoreLayout;

enum class Algo { kIterative, kDijkstra, kV1, kV2, kV3, kV4 };

struct Golden {
  const char* map;
  StoreLayout layout;
  Algo algo;
  uint64_t blocks_read;
  uint64_t blocks_written;
  uint64_t relations_created;
  uint64_t relations_deleted;
  uint64_t iterations;
  double cost;
  /// FNV-1a over the path's node ids, with its node count alongside.
  uint64_t path_hash;
  size_t path_nodes;
};

uint64_t PathHash(const std::vector<NodeId>& path) {
  uint64_t h = 1469598103934665603ull;
  for (const NodeId v : path) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(v));
    h *= 1099511628211ull;
  }
  return h;
}

const char* AlgoName(Algo a) {
  switch (a) {
    case Algo::kIterative:
      return "kIterative";
    case Algo::kDijkstra:
      return "kDijkstra";
    case Algo::kV1:
      return "kV1";
    case Algo::kV2:
      return "kV2";
    case Algo::kV3:
      return "kV3";
    case Algo::kV4:
      return "kV4";
  }
  return "?";
}

/// A fresh paper-mode store (statement-at-a-time, the benchmark's 32-frame
/// pool) with the ALT landmark table installed so Version 4 runs too.
struct Fixture {
  Fixture(const graph::Graph& g, StoreLayout layout)
      : pool(&disk, 32), store(&pool) {
    EXPECT_TRUE(store.Load(g, {layout}).ok());
    engine = std::make_unique<DbSearchEngine>(&store, &pool);
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

Result<PathResult> Run(DbSearchEngine& engine, Algo algo, NodeId s,
                       NodeId d) {
  switch (algo) {
    case Algo::kIterative:
      return engine.Iterative(s, d);
    case Algo::kDijkstra:
      return engine.Dijkstra(s, d);
    case Algo::kV1:
      return engine.AStar(s, d, AStarVersion::kV1);
    case Algo::kV2:
      return engine.AStar(s, d, AStarVersion::kV2);
    case Algo::kV3:
      return engine.AStar(s, d, AStarVersion::kV3);
    case Algo::kV4:
      return engine.AStar(s, d, AStarVersion::kV4);
  }
  return Status::Internal("bad algorithm");
}

std::string Row(const char* map, StoreLayout layout, Algo algo,
                const PathResult& r) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", StoreLayout::%s, Algo::%s, %llu, %llu, %llu, "
                "%llu, %llu, %a, 0x%016llxull, %zu},",
                map,
                layout == StoreLayout::kRowOrder ? "kRowOrder" : "kHilbert",
                AlgoName(algo),
                static_cast<unsigned long long>(r.stats.io.blocks_read),
                static_cast<unsigned long long>(r.stats.io.blocks_written),
                static_cast<unsigned long long>(r.stats.io.relations_created),
                static_cast<unsigned long long>(r.stats.io.relations_deleted),
                static_cast<unsigned long long>(r.stats.iterations), r.cost,
                static_cast<unsigned long long>(PathHash(r.path)),
                r.path.size());
  return buf;
}

// Recorded with the Tuple-at-a-time operators; see the file comment.
const Golden kGolden[] = {
    {"grid20", StoreLayout::kRowOrder, Algo::kIterative, 809, 221, 78, 78, 39, 0x1.40f09p+5, 0xd189bb1c4e1722a1ull, 39},
    {"grid20", StoreLayout::kRowOrder, Algo::kDijkstra, 3686, 1177, 0, 0, 399, 0x1.40f09p+5, 0xd189bb1c4e1722a1ull, 39},
    {"grid20", StoreLayout::kRowOrder, Algo::kV1, 7023, 2886, 2, 2, 397, 0x1.40f09p+5, 0xd189bb1c4e1722a1ull, 39},
    {"grid20", StoreLayout::kRowOrder, Algo::kV2, 3668, 1205, 0, 0, 397, 0x1.40f09p+5, 0xd189bb1c4e1722a1ull, 39},
    {"grid20", StoreLayout::kRowOrder, Algo::kV3, 3659, 1176, 0, 0, 396, 0x1.40f09p+5, 0xd189bb1c4e1722a1ull, 39},
    {"grid20", StoreLayout::kRowOrder, Algo::kV4, 364, 150, 0, 0, 38, 0x1.40f09p+5, 0xd189bb1c4e1722a1ull, 39},
    {"grid20", StoreLayout::kHilbert, Algo::kIterative, 798, 224, 78, 78, 39, 0x1.40f09p+5, 0xd189bb1c4e1722a1ull, 39},
    {"grid20", StoreLayout::kHilbert, Algo::kDijkstra, 3293, 1177, 0, 0, 399, 0x1.40f09p+5, 0xd189bb1c4e1722a1ull, 39},
    {"grid20", StoreLayout::kHilbert, Algo::kV1, 6628, 2887, 2, 2, 397, 0x1.40f09p+5, 0xd189bb1c4e1722a1ull, 39},
    {"grid20", StoreLayout::kHilbert, Algo::kV2, 3277, 1208, 0, 0, 397, 0x1.40f09p+5, 0xd189bb1c4e1722a1ull, 39},
    {"grid20", StoreLayout::kHilbert, Algo::kV3, 3269, 1175, 0, 0, 396, 0x1.40f09p+5, 0xd189bb1c4e1722a1ull, 39},
    {"grid20", StoreLayout::kHilbert, Algo::kV4, 320, 147, 0, 0, 38, 0x1.40f09p+5, 0xd189bb1c4e1722a1ull, 39},
    {"minneapolis", StoreLayout::kRowOrder, Algo::kIterative, 2695, 611, 118, 118, 59, 0x1.829322p+5, 0xbf70db2ceada4628ull, 54},
    {"minneapolis", StoreLayout::kRowOrder, Algo::kDijkstra, 14035, 3006, 0, 0, 1035, 0x1.829322p+5, 0xbf70db2ceada4628ull, 54},
    {"minneapolis", StoreLayout::kRowOrder, Algo::kV1, 10005, 4305, 2, 2, 585, 0x1.829322p+5, 0xbf70db2ceada4628ull, 54},
    {"minneapolis", StoreLayout::kRowOrder, Algo::kV2, 7986, 1776, 0, 0, 585, 0x1.829322p+5, 0xbf70db2ceada4628ull, 54},
    {"minneapolis", StoreLayout::kRowOrder, Algo::kV3, 1239, 324, 0, 0, 90, 0x1.83886p+5, 0xb1292f60b791d540ull, 54},
    {"minneapolis", StoreLayout::kRowOrder, Algo::kV4, 738, 207, 0, 0, 53, 0x1.829322p+5, 0xbf70db2ceada4628ull, 54},
    {"minneapolis", StoreLayout::kHilbert, Algo::kIterative, 2526, 457, 118, 118, 59, 0x1.829322p+5, 0xbf70db2ceada4628ull, 54},
    {"minneapolis", StoreLayout::kHilbert, Algo::kDijkstra, 12881, 2979, 0, 0, 1035, 0x1.829322p+5, 0xbf70db2ceada4628ull, 54},
    {"minneapolis", StoreLayout::kHilbert, Algo::kV1, 9413, 4305, 2, 2, 585, 0x1.829322p+5, 0xbf70db2ceada4628ull, 54},
    {"minneapolis", StoreLayout::kHilbert, Algo::kV2, 7330, 1766, 0, 0, 585, 0x1.829322p+5, 0xbf70db2ceada4628ull, 54},
    {"minneapolis", StoreLayout::kHilbert, Algo::kV3, 1139, 318, 0, 0, 90, 0x1.83886p+5, 0xb1292f60b791d540ull, 54},
    {"minneapolis", StoreLayout::kHilbert, Algo::kV4, 679, 202, 0, 0, 53, 0x1.829322p+5, 0xbf70db2ceada4628ull, 54},
};

void ExpectGolden(const char* map, const graph::Graph& g, NodeId source,
                  NodeId destination) {
  for (const StoreLayout layout :
       {StoreLayout::kRowOrder, StoreLayout::kHilbert}) {
    for (const Algo algo : {Algo::kIterative, Algo::kDijkstra, Algo::kV1,
                            Algo::kV2, Algo::kV3, Algo::kV4}) {
      // A fresh store per run: a re-run finds values already in place.
      Fixture f(g, layout);
      auto r = Run(*f.engine, algo, source, destination);
      ASSERT_TRUE(r.ok()) << AlgoName(algo) << ": " << r.status().ToString();
      ASSERT_TRUE(r->found) << AlgoName(algo);
      const std::string actual = Row(map, layout, algo, *r);
      const Golden* want = nullptr;
      for (const Golden& gd : kGolden) {
        if (std::string(gd.map) == map && gd.layout == layout &&
            gd.algo == algo) {
          want = &gd;
        }
      }
      if (want == nullptr) {
        ADD_FAILURE() << "no golden row; actual:\n    " << actual;
        continue;
      }
      EXPECT_EQ(r->stats.io.blocks_read, want->blocks_read) << actual;
      EXPECT_EQ(r->stats.io.blocks_written, want->blocks_written) << actual;
      EXPECT_EQ(r->stats.io.relations_created, want->relations_created)
          << actual;
      EXPECT_EQ(r->stats.io.relations_deleted, want->relations_deleted)
          << actual;
      EXPECT_EQ(r->stats.iterations, want->iterations) << actual;
      EXPECT_EQ(r->cost, want->cost) << actual;  // bit-identical
      EXPECT_EQ(PathHash(r->path), want->path_hash) << actual;
      EXPECT_EQ(r->path.size(), want->path_nodes) << actual;
      EXPECT_EQ(r->path.front(), source);
      EXPECT_EQ(r->path.back(), destination);
    }
  }
}

TEST(GoldenBlockCounts, PaperGrid20Variance20) {
  auto g = graph::GridGraphGenerator::Generate(
      {20, graph::GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  const auto q = graph::GridGraphGenerator::DiagonalQuery(20);
  ExpectGolden("grid20", *g, q.source, q.destination);
}

TEST(GoldenBlockCounts, MinneapolisLikeMap) {
  auto rm = graph::GenerateMinneapolisLike();
  ASSERT_TRUE(rm.ok());
  ExpectGolden("minneapolis", rm->graph, rm->a, rm->b);
}

struct ServedGolden {
  Algo algo;
  int trip;
  uint64_t blocks_read;
  uint64_t blocks_written;
  uint64_t iterations;
  double cost;
  uint64_t path_hash;
  size_t path_nodes;
};

/// 12-hop grid20 trips: six rows and six columns apart, one per diagonal
/// direction, run back to back on one warm pool.
struct Trip {
  int r, c, r2, c2;
};
constexpr Trip kServedTrips[] = {
    {2, 3, 8, 9}, {15, 4, 9, 10}, {10, 17, 4, 11}, {6, 12, 12, 6}};

std::string ServedRow(Algo algo, int trip, const PathResult& r) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{Algo::%s, %d, %llu, %llu, %llu, %a, 0x%016llxull, %zu},",
                AlgoName(algo), trip,
                static_cast<unsigned long long>(r.stats.io.blocks_read),
                static_cast<unsigned long long>(r.stats.io.blocks_written),
                static_cast<unsigned long long>(r.stats.iterations), r.cost,
                static_cast<unsigned long long>(PathHash(r.path)),
                r.path.size());
  return buf;
}

// Recorded before the engines moved to packed rows; see the file comment.
const ServedGolden kServedGolden[] = {
    {Algo::kIterative, 0, 503, 83, 34, 0x1.9406e2p+3, 0x5f69f56a0f6c7352ull, 13},
    {Algo::kIterative, 1, 453, 63, 31, 0x1.9742b6p+3, 0xc3a1be452564c1e4ull, 13},
    {Algo::kIterative, 2, 453, 60, 28, 0x1.91bb06p+3, 0x3ec70971e03e0fe9ull, 13},
    {Algo::kIterative, 3, 371, 57, 26, 0x1.9818f4p+3, 0xafa2dd7b5822866cull, 13},
    {Algo::kDijkstra, 0, 8, 7, 137, 0x1.9406e2p+3, 0x5f69f56a0f6c7352ull, 13},
    {Algo::kDijkstra, 1, 3, 2, 177, 0x1.9742b6p+3, 0xc3a1be452564c1e4ull, 13},
    {Algo::kDijkstra, 2, 6, 0, 183, 0x1.91bb06p+3, 0x3ec70971e03e0fe9ull, 13},
    {Algo::kDijkstra, 3, 5, 0, 229, 0x1.9818f4p+3, 0xafa2dd7b5822866cull, 13},
    {Algo::kV1, 0, 360, 245, 59, 0x1.9406e2p+3, 0x5f69f56a0f6c7352ull, 13},
    {Algo::kV1, 1, 435, 256, 63, 0x1.9742b6p+3, 0xc3a1be452564c1e4ull, 13},
    {Algo::kV1, 2, 374, 233, 57, 0x1.91bb06p+3, 0x3ec70971e03e0fe9ull, 13},
    {Algo::kV1, 3, 398, 242, 59, 0x1.9818f4p+3, 0xafa2dd7b5822866cull, 13},
    {Algo::kV2, 0, 3, 2, 59, 0x1.9406e2p+3, 0x5f69f56a0f6c7352ull, 13},
    {Algo::kV2, 1, 5, 5, 63, 0x1.9742b6p+3, 0xc3a1be452564c1e4ull, 13},
    {Algo::kV2, 2, 5, 2, 57, 0x1.91bb06p+3, 0x3ec70971e03e0fe9ull, 13},
    {Algo::kV2, 3, 1, 0, 59, 0x1.9818f4p+3, 0xafa2dd7b5822866cull, 13},
    {Algo::kV3, 0, 3, 2, 47, 0x1.9406e2p+3, 0x5f69f56a0f6c7352ull, 13},
    {Algo::kV3, 1, 5, 5, 48, 0x1.9742b6p+3, 0xc3a1be452564c1e4ull, 13},
    {Algo::kV3, 2, 5, 2, 44, 0x1.91bb06p+3, 0x3ec70971e03e0fe9ull, 13},
    {Algo::kV3, 3, 1, 0, 44, 0x1.9818f4p+3, 0xafa2dd7b5822866cull, 13},
    {Algo::kV4, 0, 3, 2, 14, 0x1.9406e2p+3, 0x5f69f56a0f6c7352ull, 13},
    {Algo::kV4, 1, 6, 6, 25, 0x1.9742b6p+3, 0xc3a1be452564c1e4ull, 13},
    {Algo::kV4, 2, 3, 3, 34, 0x1.91bb06p+3, 0x3ec70971e03e0fe9ull, 13},
    {Algo::kV4, 3, 0, 0, 16, 0x1.9818f4p+3, 0xafa2dd7b5822866cull, 13},
};

TEST(GoldenBlockCounts, ServedGrid20TripsSharedPool) {
  auto g = graph::GridGraphGenerator::Generate(
      {20, graph::GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  for (const Algo algo : {Algo::kIterative, Algo::kDijkstra, Algo::kV1,
                          Algo::kV2, Algo::kV3, Algo::kV4}) {
    // A fresh store and a cold pool per engine; its trips share the pool.
    storage::DiskManager disk;
    storage::BufferPool pool(&disk, /*capacity=*/16, /*num_shards=*/1);
    RelationalGraphStore store(&pool);
    ASSERT_TRUE(store.Load(*g, {StoreLayout::kHilbert}).ok());
    DbSearchOptions options;
    options.statement_at_a_time = false;
    DbSearchEngine engine(&store, &pool, options);
    if (algo == Algo::kV4) {
      // Served version 4, as the serving workloads run it: the kernel's
      // heap, one GetNode per reached node, landmarks from the store.
      LandmarkOptions lm;
      lm.num_landmarks = 4;
      auto set = SelectLandmarks(WithStoredEdgeCosts(*g), lm);
      ASSERT_TRUE(set.ok());
      auto table = PersistAndLoadLandmarks(*set, &store);
      ASSERT_TRUE(table.ok());
      ASSERT_TRUE(engine
                      .EnableLandmarks(MakeLandmarkEstimator(
                          std::move(table).value(), /*euclidean_scale=*/1.0))
                      .ok());
    }
    for (int trip = 0; trip < static_cast<int>(std::size(kServedTrips));
         ++trip) {
      const Trip& t = kServedTrips[trip];
      const NodeId s = graph::GridGraphGenerator::NodeAt(20, t.r, t.c);
      const NodeId d = graph::GridGraphGenerator::NodeAt(20, t.r2, t.c2);
      auto r = core::Run(engine, algo, s, d);
      ASSERT_TRUE(r.ok()) << AlgoName(algo) << ": " << r.status().ToString();
      ASSERT_TRUE(r->found) << AlgoName(algo);
      const std::string actual = ServedRow(algo, trip, *r);
      const ServedGolden* want = nullptr;
      for (const ServedGolden& gd : kServedGolden) {
        if (gd.algo == algo && gd.trip == trip) want = &gd;
      }
      if (want == nullptr) {
        ADD_FAILURE() << "no served golden row; actual:\n    " << actual;
        continue;
      }
      EXPECT_EQ(r->stats.io.blocks_read, want->blocks_read) << actual;
      EXPECT_EQ(r->stats.io.blocks_written, want->blocks_written) << actual;
      EXPECT_EQ(r->stats.iterations, want->iterations) << actual;
      EXPECT_EQ(r->cost, want->cost) << actual;  // bit-identical
      EXPECT_EQ(PathHash(r->path), want->path_hash) << actual;
      EXPECT_EQ(r->path.size(), want->path_nodes) << actual;
    }
  }
}

}  // namespace
}  // namespace atis::core
