#include "graph/partitioned_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/db_search.h"
#include "graph/continent_generator.h"
#include "graph/graph_io.h"
#include "util/random.h"

namespace atis::graph {
namespace {

using core::DbSearchEngine;
using storage::BufferPool;
using storage::DiskManager;

/// Tolerance for comparing against DbSearchEngine: the paper engine
/// writes its running path cost back into R's float32 path_cost field at
/// every relaxation, rounding each prefix sum, while the partitioned
/// paths accumulate in double. The drift is bounded by a few float ulps
/// per relaxed edge — far below any wrong-path difference (a whole edge
/// cost).
double RefTolerance(double cost) { return 1e-5 * (1.0 + cost); }

/// A multi-city map small enough for a single-store reference load.
std::string WriteTestMap(int num_cities, int city_k, const char* tag) {
  ContinentOptions options;
  options.num_cities = num_cities;
  options.city_k = city_k;
  auto gen = ContinentGenerator::Create(options);
  EXPECT_TRUE(gen.ok());
  const std::string path =
      ::testing::TempDir() + "/atis_partition_" + tag + ".atisg";
  EXPECT_TRUE(gen->WriteTo(path).ok());
  return path;
}

class PartitionedStoreTest : public ::testing::Test {
 protected:
  PartitionedStoreTest() : pool_(&disk_, 512, 4) {}

  std::unique_ptr<PartitionedGraphStore> BuildStore(
      const std::string& path, size_t max_partition_nodes) {
    PartitionedStoreOptions options;
    options.max_partition_nodes = max_partition_nodes;
    options.sort_budget_bytes = 1 << 12;  // force spilled runs
    auto store = PartitionedGraphStore::Build(path, &pool_, options);
    EXPECT_TRUE(store.ok()) << store.status().message();
    return std::move(*store);
  }

  DiskManager disk_;
  BufferPool pool_;
};

TEST_F(PartitionedStoreTest, BuildSplitsIntoBoundedPartitions) {
  const std::string path = WriteTestMap(4, 8, "split");
  auto store = BuildStore(path, 100);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->num_nodes(), 256u);
  EXPECT_GE(store->num_partitions(), 3u);
  for (size_t p = 0; p < store->num_partitions(); ++p) {
    EXPECT_LE(store->partition_num_owned(p), 100u);
    EXPECT_GE(store->partition_num_owned(p), 1u);
  }
  size_t owned_total = 0;
  for (size_t p = 0; p < store->num_partitions(); ++p) {
    owned_total += store->partition_num_owned(p);
  }
  EXPECT_EQ(owned_total, store->num_nodes());
  EXPECT_GT(store->num_cross_edges(), 0u);
  EXPECT_GT(store->num_boundary_nodes(), 0u);
}

TEST_F(PartitionedStoreTest, FetchAdjacencyMatchesTheSourceGraph) {
  ContinentOptions options;
  options.num_cities = 4;
  options.city_k = 8;
  auto gen = ContinentGenerator::Create(options);
  ASSERT_TRUE(gen.ok());
  const std::string path = WriteTestMap(4, 8, "adjacency");
  auto store = BuildStore(path, 100);
  ASSERT_NE(store, nullptr);
  auto g = gen->Materialize();
  ASSERT_TRUE(g.ok());
  for (NodeId u = 0; u < static_cast<NodeId>(g->num_nodes()); ++u) {
    auto rows = store->FetchAdjacency(u);
    ASSERT_TRUE(rows.ok()) << rows.status().message();
    ASSERT_EQ(rows->size(), g->OutDegree(u));
    // Same edge set (order may differ from the source graph: the store
    // serves its Hilbert-clustered insertion order).
    std::vector<std::pair<NodeId, float>> got, want;
    for (const auto& row : *rows) {
      EXPECT_EQ(row.begin, u);
      got.emplace_back(row.end, static_cast<float>(row.cost));
    }
    for (const Edge& e : g->Neighbors(u)) {
      want.emplace_back(e.to, static_cast<float>(e.cost));
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
}

TEST_F(PartitionedStoreTest, StitchedDistanceIsExact) {
  const std::string path = WriteTestMap(4, 8, "exact");
  auto store = BuildStore(path, 100);
  ASSERT_NE(store, nullptr);

  // Single-store reference over the same file: float-rounded costs, the
  // same metric the partition stores serve.
  DiskManager ref_disk;
  BufferPool ref_pool(&ref_disk, 512);
  RelationalGraphStore ref_store(&ref_pool);
  ASSERT_TRUE(ref_store.LoadStreaming(path).ok());
  DbSearchEngine ref_engine(&ref_store, &ref_pool);

  Rng rng(7);
  const NodeId n = static_cast<NodeId>(store->num_nodes());
  size_t cross_seen = 0;
  for (int i = 0; i < 40; ++i) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    PartitionedGraphStore::QueryStats stats;
    auto stitched = store->StitchedDistance(s, t, &stats);
    ASSERT_TRUE(stitched.ok()) << stitched.status().message();
    auto ref = ref_engine.Dijkstra(s, t);
    ASSERT_TRUE(ref.ok()) << ref.status().message();
    ASSERT_EQ(stitched->found, ref->found) << s << " -> " << t;
    if (ref->found) {
      EXPECT_NEAR(stitched->cost, ref->cost, RefTolerance(ref->cost))
          << s << " -> " << t;
      // The flat double-accumulation reference over the same store must
      // agree to full precision — stitching itself introduces no error.
      auto flat = store->GlobalDijkstra(s, t);
      ASSERT_TRUE(flat.ok());
      EXPECT_NEAR(stitched->cost, flat->cost, 1e-9) << s << " -> " << t;
    }
    if (stats.cross_partition) ++cross_seen;
    EXPECT_EQ(stats.cross_partition,
              store->PartitionOf(s) != store->PartitionOf(t));
  }
  // The map has >= 3 partitions; random pairs must exercise the stitch.
  EXPECT_GT(cross_seen, 0u);
}

TEST_F(PartitionedStoreTest, GlobalDijkstraAgreesWithStitched) {
  const std::string path = WriteTestMap(3, 7, "global");
  auto store = BuildStore(path, 60);
  ASSERT_NE(store, nullptr);
  Rng rng(11);
  const NodeId n = static_cast<NodeId>(store->num_nodes());
  for (int i = 0; i < 25; ++i) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    auto stitched = store->StitchedDistance(s, t);
    auto flat = store->GlobalDijkstra(s, t);
    ASSERT_TRUE(stitched.ok());
    ASSERT_TRUE(flat.ok());
    ASSERT_EQ(stitched->found, flat->found);
    if (flat->found) {
      EXPECT_NEAR(stitched->cost, flat->cost, 1e-9);
    }
  }
}

TEST_F(PartitionedStoreTest, SameNodeAndInvalidQueries) {
  const std::string path = WriteTestMap(2, 6, "degenerate");
  auto store = BuildStore(path, 50);
  ASSERT_NE(store, nullptr);
  auto same = store->StitchedDistance(5, 5);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same->found);
  EXPECT_EQ(same->cost, 0.0);
  EXPECT_EQ(store
                ->StitchedDistance(
                    0, static_cast<NodeId>(store->num_nodes()))
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store->StitchedDistance(-1, 0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store->PartitionOf(-1), -1);
}

TEST_F(PartitionedStoreTest, EmptyMapBuildsZeroPartitions) {
  ContinentOptions options;
  options.num_cities = 0;
  auto gen = ContinentGenerator::Create(options);
  ASSERT_TRUE(gen.ok());
  const std::string path = ::testing::TempDir() + "/atis_partition_empty.atisg";
  ASSERT_TRUE(gen->WriteTo(path).ok());
  auto store = PartitionedGraphStore::Build(path, &pool_, {});
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->num_partitions(), 0u);
  EXPECT_EQ((*store)->StitchedDistance(0, 0).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace atis::graph
