// Tests for batched query execution (core/batch_engine.h plus the
// RouteServer batching path): batch formation keys, singleflight
// planning, bit-identical batch-vs-serial parity across maps and
// algorithms, coalescing accounting, shared-read savings, exact per-query
// I/O under batching, and a mixed-load stress with faults and deadlines
// inside batches (the TSan target).
#include "core/batch_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/memory_search.h"
#include "core/route_server.h"
#include "graph/grid_generator.h"
#include "graph/road_map_generator.h"
#include "graph/relational_graph.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "util/random.h"

namespace atis::core {
namespace {

graph::Graph MakeGrid(int k) {
  graph::GridGraphGenerator::Options opt;
  opt.k = k;
  opt.cost_model = graph::GridCostModel::kVariance20;
  auto g = graph::GridGraphGenerator::Generate(opt);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

graph::Graph Minneapolis() {
  auto rm = graph::GenerateMinneapolisLike();
  EXPECT_TRUE(rm.ok());
  return std::move(rm).value().graph;
}

/// Deterministic reachable query mix over `g` (seeded, reachability
/// checked with the in-memory Dijkstra so road-map islands are skipped).
std::vector<RouteQuery> SeededQueries(const graph::Graph& g, size_t n,
                                      Algorithm algorithm,
                                      AStarVersion version) {
  Rng rng(1993);
  std::vector<RouteQuery> queries;
  while (queries.size() < n) {
    RouteQuery q;
    q.source = static_cast<graph::NodeId>(rng.UniformInt(g.num_nodes()));
    q.destination = static_cast<graph::NodeId>(rng.UniformInt(g.num_nodes()));
    if (q.source == q.destination) continue;
    if (!DijkstraSearch(g, q.source, q.destination).found) continue;
    q.algorithm = algorithm;
    q.version = version;
    queries.push_back(q);
  }
  return queries;
}

// -- RegionIndex ------------------------------------------------------------

TEST(BatchEngineTest, RegionIndexBucketsNodesWithinTheGrid) {
  const graph::Graph g = MakeGrid(10);
  const RegionIndex regions(g, 3);
  const uint64_t cells = 1ull << (2 * 3);  // 8x8 grid
  std::vector<bool> used(cells, false);
  for (size_t u = 0; u < g.num_nodes(); ++u) {
    const uint64_t r = regions.RegionOf(static_cast<graph::NodeId>(u));
    ASSERT_LT(r, cells);
    used[r] = true;
  }
  // A 10x10 grid spread over an 8x8 region grid must occupy many cells.
  size_t occupied = 0;
  for (bool b : used) occupied += b ? 1 : 0;
  EXPECT_GT(occupied, 8u);
  // Deterministic: same node, same cell.
  EXPECT_EQ(regions.RegionOf(42), regions.RegionOf(42));
}

TEST(BatchEngineTest, RegionIndexNeighboursShareCellsUnknownIdsAreZero) {
  const graph::Graph g = MakeGrid(16);
  const RegionIndex regions(g, 2);  // 4x4 cells over a 16x16 grid
  // Adjacent grid nodes (unit spacing) land in the same or an adjacent
  // cell; nodes far apart must not all collapse into one cell.
  EXPECT_EQ(regions.RegionOf(0), regions.RegionOf(1));
  EXPECT_NE(regions.RegionOf(0),
            regions.RegionOf(static_cast<graph::NodeId>(16 * 16 - 1)));
  EXPECT_EQ(regions.RegionOf(static_cast<graph::NodeId>(16 * 16 + 7)), 0u);
}

// -- PlanCoalescing ---------------------------------------------------------

TEST(BatchEngineTest, PlanCoalescingMapsDuplicatesToFirstOccurrence) {
  const CoalesceKey a{1, 2, Algorithm::kAStar, AStarVersion::kV3};
  const CoalesceKey b{3, 4, Algorithm::kDijkstra, AStarVersion::kV3};
  // Same endpoints as `a` but a different algorithm: distinct key.
  const CoalesceKey c{1, 2, Algorithm::kDijkstra, AStarVersion::kV3};
  const std::vector<size_t> plan = PlanCoalescing({a, b, a, c, b, a});
  EXPECT_EQ(plan, (std::vector<size_t>{0, 1, 0, 3, 1, 0}));
}

TEST(BatchEngineTest, PlanCoalescingAllDistinctIsIdentity) {
  std::vector<CoalesceKey> keys;
  for (int i = 0; i < 5; ++i) {
    keys.push_back(CoalesceKey{i, i + 100, Algorithm::kAStar,
                               AStarVersion::kV2});
  }
  const std::vector<size_t> plan = PlanCoalescing(keys);
  for (size_t i = 0; i < plan.size(); ++i) EXPECT_EQ(plan[i], i);
}

TEST(BatchEngineTest, AStarVersionDistinguishesCoalesceKeys) {
  const CoalesceKey v2{1, 2, Algorithm::kAStar, AStarVersion::kV2};
  const CoalesceKey v3{1, 2, Algorithm::kAStar, AStarVersion::kV3};
  const std::vector<size_t> plan = PlanCoalescing({v2, v3, v2});
  EXPECT_EQ(plan, (std::vector<size_t>{0, 1, 0}));
}

// -- Batch-vs-serial parity -------------------------------------------------

/// Serves the same queries through an unbatched and a batched server and
/// requires bit-identical answers: exact cost equality (no tolerance) and
/// the same node sequence.
void ExpectBatchParity(const graph::Graph& g,
                       const std::vector<RouteQuery>& queries,
                       size_t num_landmarks = 0) {
  RouteServer::Options serial;
  serial.num_workers = 1;
  serial.num_landmarks = num_landmarks;
  RouteServer reference(g, serial);
  ASSERT_TRUE(reference.init_status().ok());
  auto expected = reference.ServeBatch(queries);
  ASSERT_TRUE(expected.ok());

  RouteServer::Options batched = serial;
  batched.max_batch = 8;
  RouteServer server(g, batched);
  ASSERT_TRUE(server.init_status().ok());
  auto batch = server.ServeBatch(queries);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), expected->size());

  for (size_t i = 0; i < queries.size(); ++i) {
    const RouteResponse& got = (*batch)[i];
    const RouteResponse& want = (*expected)[i];
    ASSERT_TRUE(got.status.ok()) << "query " << i;
    EXPECT_EQ(got.result.found, want.result.found) << "query " << i;
    EXPECT_EQ(got.result.cost, want.result.cost) << "query " << i;
    EXPECT_EQ(got.result.path, want.result.path) << "query " << i;
    EXPECT_NE(got.batch_id, 0u) << "query " << i;
    EXPECT_EQ(want.batch_id, 0u) << "query " << i;
  }
  // The batched server actually batched (and shared at least some reads
  // on these clustered workloads).
  EXPECT_GT(server.batches_executed(), 0u);
  EXPECT_EQ(server.batch_members_executed(), queries.size());
}

TEST(BatchParityTest, DijkstraBitIdenticalAcrossGrids) {
  for (int k : {10, 20, 30}) {
    const graph::Graph g = MakeGrid(k);
    ExpectBatchParity(
        g, SeededQueries(g, 16, Algorithm::kDijkstra, AStarVersion::kV3));
  }
}

TEST(BatchParityTest, AStarV2BitIdenticalAcrossGrids) {
  for (int k : {10, 20, 30}) {
    const graph::Graph g = MakeGrid(k);
    ExpectBatchParity(
        g, SeededQueries(g, 16, Algorithm::kAStar, AStarVersion::kV2));
  }
}

TEST(BatchParityTest, AStarV4BitIdenticalWithLandmarks) {
  const graph::Graph g = MakeGrid(20);
  ExpectBatchParity(
      g, SeededQueries(g, 16, Algorithm::kAStar, AStarVersion::kV4),
      /*num_landmarks=*/8);
}

TEST(BatchParityTest, MinneapolisAllAlgorithmsBitIdentical) {
  const graph::Graph g = Minneapolis();
  std::vector<RouteQuery> queries =
      SeededQueries(g, 8, Algorithm::kDijkstra, AStarVersion::kV3);
  const std::vector<RouteQuery> v2 =
      SeededQueries(g, 8, Algorithm::kAStar, AStarVersion::kV2);
  const std::vector<RouteQuery> v4 =
      SeededQueries(g, 8, Algorithm::kAStar, AStarVersion::kV4);
  queries.insert(queries.end(), v2.begin(), v2.end());
  queries.insert(queries.end(), v4.begin(), v4.end());
  ExpectBatchParity(g, queries, /*num_landmarks=*/8);
}

// -- Shared reads and exact accounting --------------------------------------

TEST(BatchIoTest, BatchingSharesReadsAndKeepsPerQueryIoExact) {
  const graph::Graph g = MakeGrid(20);
  // Sources clustered in one corner: heavy adjacency overlap, the case
  // batching exists for.
  std::vector<RouteQuery> queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(RouteQuery{i, static_cast<graph::NodeId>(399 - i),
                                 Algorithm::kDijkstra});
  }

  RouteServer::Options opt;
  opt.num_workers = 1;
  opt.pool_frames = 8;  // tiny pool: shared fetches save real block reads
  opt.max_batch = 16;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());

  const storage::IoCounters before = server.disk().meter().counters();
  auto batch = server.ServeBatch(queries);
  ASSERT_TRUE(batch.ok());
  const storage::IoCounters after = server.disk().meter().counters();

  uint64_t reads = 0;
  for (const RouteResponse& resp : *batch) {
    ASSERT_TRUE(resp.status.ok());
    reads += resp.io.blocks_read;
  }
  // Exact accounting survives batching: per-query mirrors still tile the
  // shared meter's delta (cached adjacency hits are genuinely free).
  EXPECT_EQ(reads, after.blocks_read - before.blocks_read);
  // And the batch cache did absorb repeat expansions.
  EXPECT_GT(server.batch_shared_hits(), 0u);
  EXPECT_GT(server.batch_adjacency_fetches(), 0u);

  // Reference: the same load unbatched reads strictly more blocks.
  RouteServer::Options serial = opt;
  serial.max_batch = 1;
  RouteServer unbatched(g, serial);
  ASSERT_TRUE(unbatched.init_status().ok());
  const storage::IoCounters b0 = unbatched.disk().meter().counters();
  auto serial_batch = unbatched.ServeBatch(queries);
  ASSERT_TRUE(serial_batch.ok());
  const storage::IoCounters a0 = unbatched.disk().meter().counters();
  EXPECT_LT(after.blocks_read - before.blocks_read,
            a0.blocks_read - b0.blocks_read);
}

TEST(BatchIoTest, SharedAdjacencyIsServedInPlaceAndCounted) {
  const graph::Graph g = MakeGrid(10);
  storage::DiskManager disk;
  storage::BufferPool pool(&disk, 16);
  graph::RelationalGraphStore store(&pool);
  ASSERT_TRUE(store.Load(g).ok());
  BatchContext ctx(7);
  auto first = ctx.FetchAdjacency(store, 11);
  ASSERT_TRUE(first.ok());
  auto direct = store.FetchAdjacency(11);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ((*first)->size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ((**first)[i].end, (*direct)[i].end);
    EXPECT_EQ((**first)[i].cost, (*direct)[i].cost);
  }
  const uint64_t reads = disk.meter().counters().blocks_read;
  auto again = ctx.FetchAdjacency(store, 11);
  ASSERT_TRUE(again.ok());
  // The same cached list, not a copy, and no block read for it.
  EXPECT_EQ(*again, *first);
  EXPECT_EQ(disk.meter().counters().blocks_read, reads);
  EXPECT_EQ(ctx.stats().adjacency_fetches, 1u);
  EXPECT_EQ(ctx.stats().shared_adjacency_hits, 1u);
}

// A batch of one shares nothing, so it must cost what an unbatched query
// costs: the same answer and the same blocks, bit for bit, while the batch
// counters still count it.
TEST(BatchIoTest, OneMemberBatchesMatchUnbatchedRunsAndAreCounted) {
  const graph::Graph g = MakeGrid(20);
  std::vector<RouteQuery> queries =
      SeededQueries(g, 6, Algorithm::kDijkstra, AStarVersion::kV3);
  for (const AStarVersion v :
       {AStarVersion::kV1, AStarVersion::kV2, AStarVersion::kV3,
        AStarVersion::kV4}) {
    const std::vector<RouteQuery> more =
        SeededQueries(g, 6, Algorithm::kAStar, v);
    queries.insert(queries.end(), more.begin(), more.end());
  }
  RouteServer::Options opt;
  opt.num_workers = 1;
  opt.pool_frames = 8;
  opt.num_landmarks = 4;
  opt.enable_cache = false;
  opt.max_batch = 1;
  RouteServer unbatched(g, opt);
  ASSERT_TRUE(unbatched.init_status().ok());
  opt.max_batch = 8;
  RouteServer batched(g, opt);
  ASSERT_TRUE(batched.init_status().ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    // Submitted alone, each query is its own batch.
    auto want = unbatched.ServeBatch({queries[i]});
    auto got = batched.ServeBatch({queries[i]});
    ASSERT_TRUE(want.ok() && got.ok());
    const RouteResponse& w = want->front();
    const RouteResponse& r = got->front();
    ASSERT_TRUE(w.status.ok() && r.status.ok()) << "query " << i;
    EXPECT_NE(r.batch_id, 0u) << "query " << i;
    EXPECT_EQ(r.result.found, w.result.found) << "query " << i;
    EXPECT_EQ(r.result.cost, w.result.cost) << "query " << i;
    EXPECT_EQ(r.result.path, w.result.path) << "query " << i;
    EXPECT_EQ(r.io.blocks_read, w.io.blocks_read) << "query " << i;
    EXPECT_EQ(r.io.blocks_written, w.io.blocks_written) << "query " << i;
    EXPECT_EQ(r.result.stats.iterations, w.result.stats.iterations)
        << "query " << i;
  }
  EXPECT_EQ(batched.batches_executed(), queries.size());
  EXPECT_EQ(batched.batch_members_executed(), queries.size());
  EXPECT_GT(batched.batch_adjacency_fetches(), 0u);
  EXPECT_EQ(unbatched.batches_executed(), 0u);
}

// -- Coalescing -------------------------------------------------------------

TEST(BatchCoalescingTest, DuplicateQueriesComputeOnceAndAnswerIdentically) {
  const graph::Graph g = MakeGrid(12);
  const RouteQuery unique1{5, 140, Algorithm::kAStar, AStarVersion::kV3};
  const RouteQuery dup{10, 130, Algorithm::kAStar, AStarVersion::kV3};
  const std::vector<RouteQuery> queries = {dup, unique1, dup, dup};

  RouteServer::Options opt;
  opt.num_workers = 1;
  opt.max_batch = 8;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());
  auto batch = server.ServeBatch(queries);
  ASSERT_TRUE(batch.ok());

  const RouteResponse& leader = (*batch)[0];
  ASSERT_TRUE(leader.status.ok());
  EXPECT_FALSE(leader.coalesced);
  EXPECT_EQ(leader.served_via, ServedVia::kEngine);

  for (size_t i : {size_t{2}, size_t{3}}) {
    const RouteResponse& follower = (*batch)[i];
    ASSERT_TRUE(follower.status.ok()) << "query " << i;
    EXPECT_TRUE(follower.coalesced);
    EXPECT_EQ(follower.served_via, ServedVia::kCoalesced);
    EXPECT_EQ(follower.result.cost, leader.result.cost);
    EXPECT_EQ(follower.result.path, leader.result.path);
    EXPECT_EQ(follower.io.blocks_read, 0u);  // the computation ran once
    EXPECT_EQ(follower.batch_id, leader.batch_id);
  }
  EXPECT_FALSE((*batch)[1].coalesced);
  EXPECT_EQ(server.batch_coalesced_served(), 2u);
}

TEST(BatchCoalescingTest, CoalescedFollowersDoNotDoubleCountTheCache) {
  const graph::Graph g = MakeGrid(10);
  const RouteQuery dup{3, 88, Algorithm::kAStar, AStarVersion::kV3};
  const std::vector<RouteQuery> queries = {dup, dup, dup};

  RouteServer::Options opt;
  opt.num_workers = 1;
  opt.max_batch = 8;
  opt.enable_cache = true;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());

  auto first = server.ServeBatch(queries);
  ASSERT_TRUE(first.ok());
  // One engine computation (the leader); followers are coalesced, not
  // cache hits, and they must not have touched the cache's stats.
  EXPECT_EQ(server.cache()->stats().hits, 0u);
  EXPECT_EQ(server.cache()->stats().misses, 1u);

  // A later, separate batch hits the now-populated cache as usual.
  auto second = server.ServeBatch({dup});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE((*second)[0].cache_hit);
  EXPECT_EQ((*second)[0].served_via, ServedVia::kCache);
  EXPECT_EQ(server.cache()->stats().hits, 1u);
}

// -- Mixed-load stress (TSan target) ----------------------------------------

// Concurrent dispatchers, multiple workers, batching, faults, tight
// deadlines, degraded fallbacks and coalescible duplicates all at once:
// every query must still get exactly one answer and per-call responses
// must stay positionally aligned.
TEST(BatchStressTest, MixedLoadWithFaultsAndDeadlinesStaysCoherent) {
  const graph::Graph g = MakeGrid(12);
  RouteServer::Options opt;
  opt.num_workers = 4;
  opt.pool_frames = 16;  // real disk traffic so faults actually fire
  opt.max_batch = 4;
  opt.enable_degraded = true;
  opt.enable_cache = true;
  opt.fault_profile.seed = 1993;
  opt.fault_profile.transient_rate = 0.005;
  opt.retry.max_attempts = 6;
  opt.retry.initial_backoff_micros = 1;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());

  constexpr size_t kDispatchers = 3;
  constexpr size_t kRounds = 4;
  std::vector<std::thread> dispatchers;
  std::atomic<size_t> answered{0};
  for (size_t d = 0; d < kDispatchers; ++d) {
    dispatchers.emplace_back([&, d] {
      Rng rng(1993 + d);
      for (size_t round = 0; round < kRounds; ++round) {
        std::vector<RouteQuery> queries;
        for (size_t i = 0; i < 12; ++i) {
          RouteQuery q;
          q.source = static_cast<graph::NodeId>(rng.UniformInt(144));
          q.destination = static_cast<graph::NodeId>(rng.UniformInt(144));
          if (q.source == q.destination) q.destination = (q.destination + 1) % 144;
          q.algorithm = i % 2 == 0 ? Algorithm::kDijkstra : Algorithm::kAStar;
          if (i % 5 == 0) q.deadline_ms = 1;  // some queries under pressure
          queries.push_back(q);
          if (i % 4 == 3) queries.push_back(q);  // coalescible duplicate
        }
        auto batch = server.ServeBatch(queries);
        ASSERT_TRUE(batch.ok());
        ASSERT_EQ(batch->size(), queries.size());
        for (size_t i = 0; i < batch->size(); ++i) {
          const RouteResponse& resp = (*batch)[i];
          EXPECT_EQ(resp.query_index, i);
          // Under degraded serving the only acceptable failure is a
          // deadline miss that no fallback could absorb in time.
          if (resp.status.ok()) {
            answered.fetch_add(1, std::memory_order_relaxed);
            if (!resp.degraded && !resp.cache_hit && !resp.coalesced) {
              EXPECT_TRUE(resp.served_via == ServedVia::kEngine);
            }
          }
        }
      }
    });
  }
  for (std::thread& t : dispatchers) t.join();
  EXPECT_GT(answered.load(), 0u);
  EXPECT_GT(server.batches_executed(), 0u);
  // The /statusz body renders concurrently with nothing else running;
  // smoke-check the batching section is present and well-formed enough.
  const std::string statusz = server.StatuszJson();
  EXPECT_NE(statusz.find("\"batching\""), std::string::npos);
  EXPECT_NE(statusz.find("\"shared_adjacency_hits\""), std::string::npos);
}

}  // namespace
}  // namespace atis::core
