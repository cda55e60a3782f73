// Failure-injection tests: a disk that starts erroring mid-run must
// surface Status errors through every layer — buffer pool, heap file,
// indexes, relational operators, landmark preprocessing, and the
// database-resident search engine — without crashing, and the stack must
// work again once the fault clears.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "core/db_search.h"
#include "core/landmarks.h"
#include "core/memory_search.h"
#include "graph/grid_generator.h"
#include "index/hash_index.h"
#include "index/isam_index.h"
#include "relational/operators.h"
#include "relational/relation.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "tuple_rows.h"

namespace atis {
namespace {

using graph::GridCostModel;
using graph::GridGraphGenerator;
using relational::FieldType;
using relational::Relation;
using relational::Schema;
using relational::Tuple;
using storage::BufferPool;
using storage::DiskManager;

TEST(FaultInjectionTest, DiskFailsAfterCountdown) {
  DiskManager dm;
  const auto id = dm.AllocatePage();
  storage::Page p;
  dm.FailAfter(2);
  EXPECT_TRUE(dm.ReadPage(id, &p).ok());
  EXPECT_TRUE(dm.WritePage(id, p).ok());
  EXPECT_EQ(dm.ReadPage(id, &p).code(), StatusCode::kInternal);
  EXPECT_EQ(dm.WritePage(id, p).code(), StatusCode::kInternal);
  EXPECT_TRUE(dm.fault_active());
  dm.ClearFaultInjection();
  EXPECT_TRUE(dm.ReadPage(id, &p).ok());
}

TEST(FaultInjectionTest, FailedIoIsNotMetered) {
  DiskManager dm;
  const auto id = dm.AllocatePage();
  storage::Page p;
  dm.FailAfter(0);
  const auto before = dm.meter().counters();
  EXPECT_FALSE(dm.ReadPage(id, &p).ok());
  EXPECT_EQ(dm.meter().counters().blocks_read, before.blocks_read);
}

TEST(FaultInjectionTest, BufferPoolPropagatesFetchError) {
  DiskManager dm;
  BufferPool pool(&dm, 2);
  auto g = pool.NewPage();
  ASSERT_TRUE(g.ok());
  const auto id = g->id();
  g->Release();
  ASSERT_TRUE(pool.EvictAll().ok());
  dm.FailAfter(0);
  auto refetch = pool.FetchPage(id);
  EXPECT_FALSE(refetch.ok());
  EXPECT_EQ(refetch.status().code(), StatusCode::kInternal);
  dm.ClearFaultInjection();
  EXPECT_TRUE(pool.FetchPage(id).ok());
}

TEST(FaultInjectionTest, BufferPoolPropagatesWritebackError) {
  DiskManager dm;
  BufferPool pool(&dm, 2);
  auto g = pool.NewPage();
  ASSERT_TRUE(g.ok());
  g->MutablePage().WriteAt<int32_t>(0, 1);
  g->Release();
  dm.FailAfter(0);
  EXPECT_EQ(pool.FlushAll().code(), StatusCode::kInternal);
  dm.ClearFaultInjection();
  EXPECT_TRUE(pool.FlushAll().ok());
}

TEST(FaultInjectionTest, RelationSurfacesErrorsOnScanAndInsert) {
  DiskManager dm;
  BufferPool pool(&dm, 4);
  Relation rel("t", Schema({{"id", FieldType::kInt32}}), &pool);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(InsertTuple(&rel, Tuple{int64_t{i}}).ok());
  }
  ASSERT_TRUE(pool.EvictAll().ok());
  dm.FailAfter(1);
  // The scan needs several block reads; it must stop rather than crash.
  size_t visited = 0;
  for (Relation::Cursor c = rel.Scan(); c.Valid(); c.Next()) ++visited;
  EXPECT_LT(visited, 2000u);
  dm.ClearFaultInjection();
  visited = 0;
  for (Relation::Cursor c = rel.Scan(); c.Valid(); c.Next()) ++visited;
  EXPECT_EQ(visited, 2000u);
}

TEST(FaultInjectionTest, InPlaceReplaceSurfacesErrorAndLeaksNoPin) {
  DiskManager dm;
  BufferPool pool(&dm, 2);
  Relation rel("t", Schema({{"id", FieldType::kInt32}}), &pool);
  ASSERT_TRUE(rel.CreateHashIndex("id", 8).ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(InsertTuple(&rel, Tuple{int64_t{i}}).ok());
  }
  ASSERT_GE(rel.num_blocks(), 3u);
  ASSERT_TRUE(pool.EvictAll().ok());
  // The match scan reads every data page; the write pass then re-reads
  // the first one and fails on its next page fetch, mid-statement, while
  // rows of the first page are already rewritten (and that page dirty).
  dm.FailAfter(rel.num_blocks() + 1);
  auto n = relational::Replace(
      &rel, {}, [](relational::RowWriter& row) {
        row.SetInt(0, row.Int(0) + 1);  // moves every hash-index key
      });
  EXPECT_FALSE(n.ok());
  dm.ClearFaultInjection();
  // No frame is left pinned by the failed statement: evicting all works.
  EXPECT_TRUE(pool.EvictAll().ok());
  size_t rows = 0;
  for (Relation::Cursor c = rel.Scan(); c.Valid(); c.Next()) ++rows;
  EXPECT_EQ(rows, 2000u);
}

TEST(FaultInjectionTest, HeapFileScanAndGetSurviveFaults) {
  DiskManager dm;
  BufferPool pool(&dm, 4);
  storage::HeapFile file(&pool);
  std::vector<storage::RecordId> rids;
  for (int i = 0; i < 500; ++i) {
    uint8_t payload[64];
    std::memset(payload, i & 0xff, sizeof(payload));
    auto rid = file.Insert(payload);
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  ASSERT_TRUE(pool.EvictAll().ok());

  dm.FailAfter(1);
  // The multi-page scan hits the fault and must stop, not crash.
  size_t visited = 0;
  for (auto it = file.Begin(); it.Valid(); it.Next()) ++visited;
  EXPECT_LT(visited, rids.size());
  // Point reads surface the error directly.
  ASSERT_TRUE(pool.EvictAll().ok());
  EXPECT_EQ(file.Read(rids.back(), [](std::span<const uint8_t>) {}).code(),
            StatusCode::kInternal);

  dm.ClearFaultInjection();
  ASSERT_TRUE(pool.EvictAll().ok());
  visited = 0;
  for (auto it = file.Begin(); it.Valid(); it.Next()) ++visited;
  EXPECT_EQ(visited, rids.size());
}

TEST(FaultInjectionTest, SelectScanSurfacesStorageErrors) {
  DiskManager dm;
  BufferPool pool(&dm, 4);
  Relation nodes("nodes", Schema({{"id", FieldType::kInt32},
                                  {"cost", FieldType::kFloat}}),
                 &pool);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(InsertTuple(&nodes, Tuple{int64_t{i}, 1.5 * i}).ok());
  }
  ASSERT_TRUE(pool.EvictAll().ok());

  dm.FailAfter(1);
  std::vector<uint8_t> rows;
  auto r = relational::SelectScan(
      nodes, [](const relational::RowView& t) { return t.Double(1) > 100; },
      &rows);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);

  dm.ClearFaultInjection();
  ASSERT_TRUE(pool.EvictAll().ok());
  rows.clear();
  auto ok = relational::SelectScan(
      nodes, [](const relational::RowView& t) { return t.Int(0) < 10; },
      &rows);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 10u);
}

TEST(FaultInjectionTest, IsamAndHashLookupsSurfaceErrors) {
  DiskManager dm;
  BufferPool pool(&dm, 8);

  index::IsamIndex isam(&pool);
  std::vector<index::IsamIndex::Entry> entries;
  for (int64_t k = 0; k < 2000; ++k) {
    entries.push_back({k, storage::RecordId{static_cast<storage::PageId>(k),
                                            0}});
  }
  ASSERT_TRUE(isam.Build(entries).ok());

  index::StaticHashIndex hash(&pool, 16);
  for (int64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(
        hash.Insert(k, storage::RecordId{static_cast<storage::PageId>(k), 0})
            .ok());
  }
  ASSERT_TRUE(pool.EvictAll().ok());

  dm.FailAfter(0);
  EXPECT_EQ(isam.Lookup(1234).status().code(), StatusCode::kInternal);
  EXPECT_EQ(isam.LookupAll(77).status().code(), StatusCode::kInternal);
  EXPECT_EQ(hash.Lookup(1234).status().code(), StatusCode::kInternal);

  dm.ClearFaultInjection();
  ASSERT_TRUE(pool.EvictAll().ok());
  auto by_isam = isam.Lookup(1234);
  ASSERT_TRUE(by_isam.ok());
  EXPECT_EQ(by_isam->page, 1234u);
  auto by_hash = hash.Lookup(1234);
  ASSERT_TRUE(by_hash.ok());
  ASSERT_EQ(by_hash->size(), 1u);
  EXPECT_EQ(by_hash->front().page, 1234u);
}

TEST(FaultInjectionTest, LandmarkPreprocessingSurfacesErrors) {
  auto g = GridGraphGenerator::Generate({10, GridCostModel::kUniform});
  ASSERT_TRUE(g.ok());
  // 8 landmarks x 100 nodes = 800 rows of 24 bytes: the landmarkDist
  // relation spans several pages, more than the 4-frame pool below can
  // hold, so persisting it must write through to the (dead) disk.
  auto selected = core::SelectLandmarks(core::WithStoredEdgeCosts(*g),
                                        {/*num_landmarks=*/8});
  ASSERT_TRUE(selected.ok());

  DiskManager dm;
  BufferPool pool(&dm, 4);
  graph::RelationalGraphStore store(&pool);
  ASSERT_TRUE(store.Load(*g).ok());
  ASSERT_TRUE(pool.EvictAll().ok());

  dm.FailAfter(0);  // dies while persisting the landmarkDist relation
  auto table = core::PersistAndLoadLandmarks(*selected, &store);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInternal);

  dm.ClearFaultInjection();
  ASSERT_TRUE(pool.EvictAll().ok());
  auto retry = core::PersistAndLoadLandmarks(*selected, &store);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ((*retry)->num_landmarks(), 8u);
}

TEST(FaultInjectionTest, RetryPolicyAbsorbsTransientFaults) {
  DiskManager dm;
  BufferPool pool(&dm, 2);
  pool.SetRetryPolicy({/*max_attempts=*/4, /*initial_backoff_micros=*/0});
  auto g = pool.NewPage();
  ASSERT_TRUE(g.ok());
  const auto id = g->id();
  g->Release();
  ASSERT_TRUE(pool.EvictAll().ok());

  const auto before = dm.meter().counters();
  dm.FailTransient(3);  // attempts 1-3 fail, attempt 4 succeeds
  auto fetched = pool.FetchPage(id);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(pool.stats().read_retries, 3u);
  EXPECT_EQ(pool.stats().retries_exhausted, 0u);
  // Never double-metered: the three failed attempts are uncharged, the
  // one successful fill costs exactly one block read.
  EXPECT_EQ(dm.meter().counters().blocks_read, before.blocks_read + 1);
}

TEST(FaultInjectionTest, RetryBudgetExhaustionPropagatesUnavailable) {
  DiskManager dm;
  BufferPool pool(&dm, 2);
  pool.SetRetryPolicy({/*max_attempts=*/3, /*initial_backoff_micros=*/0});
  auto g = pool.NewPage();
  ASSERT_TRUE(g.ok());
  const auto id = g->id();
  g->Release();
  ASSERT_TRUE(pool.EvictAll().ok());

  dm.FailTransient(100);  // outlives the 3-attempt budget
  auto fetched = pool.FetchPage(id);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(pool.stats().read_retries, 2u);  // attempts 2 and 3
  EXPECT_EQ(pool.stats().retries_exhausted, 1u);
  // ResetStats clears the pool-wide retry counters with the shard ones.
  pool.ResetStats();
  EXPECT_EQ(pool.stats().read_retries, 0u);
  EXPECT_EQ(pool.stats().retries_exhausted, 0u);
}

TEST(FaultInjectionTest, PermanentFaultsAreNeverRetried) {
  DiskManager dm;
  BufferPool pool(&dm, 2);
  pool.SetRetryPolicy({/*max_attempts=*/5, /*initial_backoff_micros=*/0});
  auto g = pool.NewPage();
  ASSERT_TRUE(g.ok());
  const auto id = g->id();
  g->Release();
  ASSERT_TRUE(pool.EvictAll().ok());

  dm.FailAfter(0);  // permanent: kInternal
  auto fetched = pool.FetchPage(id);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kInternal);
  EXPECT_EQ(pool.stats().read_retries, 0u);  // not transient -> no retry
}

TEST(FaultInjectionTest, DbSearchReturnsErrorNotCrash) {
  auto g = GridGraphGenerator::Generate({8, GridCostModel::kVariance20});
  ASSERT_TRUE(g.ok());
  DiskManager dm;
  BufferPool pool(&dm, 64);
  graph::RelationalGraphStore store(&pool);
  ASSERT_TRUE(store.Load(*g).ok());
  core::DbSearchEngine engine(&store, &pool);

  dm.FailAfter(50);  // dies mid-search
  auto r = engine.Dijkstra(0, 63);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);

  // Recovery: clear the fault and the same engine answers correctly.
  dm.ClearFaultInjection();
  // EvictAll may have been skipped mid-failure; reset the pool state.
  ASSERT_TRUE(pool.EvictAll().ok());
  auto ok = engine.Dijkstra(0, 63);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->found);
  const auto mem = core::DijkstraSearch(*g, 0, 63);
  EXPECT_EQ(ok->stats.iterations, mem.stats.iterations);
}

TEST(FaultInjectionTest, EverySearchAlgorithmSurvivesInjectedFaults) {
  auto g = GridGraphGenerator::Generate({6, GridCostModel::kUniform});
  ASSERT_TRUE(g.ok());
  for (int variant = 0; variant < 4; ++variant) {
    DiskManager dm;
    BufferPool pool(&dm, 64);
    graph::RelationalGraphStore store(&pool);
    ASSERT_TRUE(store.Load(*g).ok());
    core::DbSearchEngine engine(&store, &pool);
    dm.FailAfter(30);
    Result<core::PathResult> r = [&]() -> Result<core::PathResult> {
      switch (variant) {
        case 0:
          return engine.Dijkstra(0, 35);
        case 1:
          return engine.AStar(0, 35, core::AStarVersion::kV1);
        case 2:
          return engine.AStar(0, 35, core::AStarVersion::kV3);
        default:
          return engine.Iterative(0, 35);
      }
    }();
    EXPECT_FALSE(r.ok()) << "variant " << variant;
    EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  }
}

}  // namespace
}  // namespace atis
