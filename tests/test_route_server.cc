// Tests for core::RouteServer: parallel serving must return exactly the
// answers a single-threaded engine produces, account I/O per query, report
// per-query errors without failing the batch, and shut down cleanly.
#include "core/route_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/db_search.h"
#include "core/landmarks.h"
#include "core/memory_search.h"
#include "core/sssp.h"
#include "graph/grid_generator.h"
#include "graph/relational_graph.h"
#include "obs/metrics.h"
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

std::vector<RouteQuery> CornerQueries(int k, size_t n) {
  // Deterministic spread of sources/destinations over the grid diagonal.
  std::vector<RouteQuery> queries;
  const auto nodes = static_cast<graph::NodeId>(k * k);
  for (size_t i = 0; i < n; ++i) {
    RouteQuery q;
    q.source = static_cast<graph::NodeId>((7 * i + 3) % nodes);
    q.destination = static_cast<graph::NodeId>((11 * i + nodes / 2) % nodes);
    if (q.source == q.destination) q.destination = (q.destination + 1) % nodes;
    q.algorithm = i % 3 == 0 ? Algorithm::kDijkstra : Algorithm::kAStar;
    queries.push_back(q);
  }
  return queries;
}

TEST(RouteServerTest, ParallelAnswersMatchSequentialEngine) {
  const graph::Graph g = MakeGrid(12);
  const std::vector<RouteQuery> queries = CornerQueries(12, 24);

  // Reference: one single-threaded engine over its own store.
  storage::DiskManager disk;
  storage::BufferPool pool(&disk, 64);
  graph::RelationalGraphStore store(&pool);
  ASSERT_TRUE(store.Load(g).ok());
  DbSearchEngine engine(&store, &pool, DbSearchOptions{});
  std::vector<PathResult> expected;
  for (const RouteQuery& q : queries) {
    auto r = q.algorithm == Algorithm::kDijkstra
                 ? engine.Dijkstra(q.source, q.destination)
                 : engine.AStar(q.source, q.destination, q.version);
    ASSERT_TRUE(r.ok());
    expected.push_back(std::move(r).value());
  }

  // Every query must block long enough for idle workers to wake and claim
  // the next ones, however fast the engine: a pool smaller than the four
  // replicas makes queries miss, and each miss sleeps 1 ms.
  RouteServer::Options opt;
  opt.num_workers = 4;
  opt.pool_frames = 32;
  opt.pool_shards = 1;
  opt.disk_latency.read_micros = 1000;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());
  auto batch = server.ServeBatch(queries);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), queries.size());

  std::set<int> workers_used;
  for (size_t i = 0; i < queries.size(); ++i) {
    const RouteResponse& resp = (*batch)[i];
    EXPECT_EQ(resp.query_index, i);
    ASSERT_TRUE(resp.status.ok()) << "query " << i;
    EXPECT_EQ(resp.result.found, expected[i].found) << "query " << i;
    EXPECT_NEAR(resp.result.cost, expected[i].cost, 1e-9) << "query " << i;
    EXPECT_EQ(resp.result.path, expected[i].path) << "query " << i;
    EXPECT_GE(resp.latency_seconds, 0.0);
    workers_used.insert(resp.worker_id);
  }
  // With 24 queries over 4 workers at least two workers must have served.
  EXPECT_GE(workers_used.size(), 2u);
}

TEST(RouteServerTest, PerQueryIoSumsToSharedDiskDelta) {
  const graph::Graph g = MakeGrid(8);
  RouteServer::Options opt;
  opt.num_workers = 2;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());

  const storage::IoCounters before = server.disk().meter().counters();
  auto batch = server.ServeBatch(CornerQueries(8, 10));
  ASSERT_TRUE(batch.ok());
  const storage::IoCounters after = server.disk().meter().counters();

  uint64_t reads = 0, writes = 0;
  for (const RouteResponse& resp : *batch) {
    ASSERT_TRUE(resp.status.ok());
    reads += resp.io.blocks_read;
    writes += resp.io.blocks_written;
  }
  // The workers are the only disk users, so per-query mirrors must tile
  // the shared meter's delta exactly.
  EXPECT_EQ(reads, after.blocks_read - before.blocks_read);
  EXPECT_EQ(writes, after.blocks_written - before.blocks_written);
}

TEST(RouteServerTest, PerQueryStatsCountOnlyTheQuerysOwnBlocks) {
  // Four workers missing a small pool with 1 ms reads: queries overlap,
  // so a count taken on the shared meter would include other workers'
  // blocks. A run's SearchStats read the worker's own counters instead,
  // which resp.io (the whole query, reconstruction included) covers.
  const graph::Graph g = MakeGrid(12);
  RouteServer::Options opt;
  opt.num_workers = 4;
  opt.pool_frames = 32;
  opt.pool_shards = 1;
  opt.disk_latency.read_micros = 1000;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());
  auto batch = server.ServeBatch(CornerQueries(12, 24));
  ASSERT_TRUE(batch.ok());

  uint64_t search_reads = 0;
  for (size_t i = 0; i < batch->size(); ++i) {
    const RouteResponse& resp = (*batch)[i];
    ASSERT_TRUE(resp.status.ok()) << "query " << i;
    EXPECT_LE(resp.result.stats.io.blocks_read, resp.io.blocks_read)
        << "query " << i;
    EXPECT_LE(resp.result.stats.io.blocks_written, resp.io.blocks_written)
        << "query " << i;
    search_reads += resp.result.stats.io.blocks_read;
  }
  EXPECT_GT(search_reads, 0u);
}

TEST(RouteServerTest, BadQueryFailsAloneNotTheBatch) {
  const graph::Graph g = MakeGrid(6);
  RouteServer::Options opt;
  opt.num_workers = 2;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());

  std::vector<RouteQuery> queries = CornerQueries(6, 4);
  RouteQuery bad;
  bad.source = 0;
  bad.destination = 30000;  // not a node of the 6x6 grid
  queries.push_back(bad);

  auto batch = server.ServeBatch(queries);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 5u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE((*batch)[i].status.ok()) << "query " << i;
  }
  EXPECT_FALSE(batch->back().status.ok());
}

TEST(RouteServerTest, EmptyBatchAndRepeatedBatchesWork) {
  const graph::Graph g = MakeGrid(6);
  RouteServer::Options opt;
  opt.num_workers = 2;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());

  auto empty = server.ServeBatch({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  const std::vector<RouteQuery> queries = CornerQueries(6, 6);
  auto first = server.ServeBatch(queries);
  auto second = server.ServeBatch(queries);
  ASSERT_TRUE(first.ok() && second.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_NEAR((*first)[i].result.cost, (*second)[i].result.cost, 1e-9);
  }
}

TEST(RouteServerTest, ShutdownWithoutServingIsClean) {
  const graph::Graph g = MakeGrid(5);
  RouteServer::Options opt;
  opt.num_workers = 3;
  RouteServer server(g, opt);
  EXPECT_TRUE(server.init_status().ok());
  EXPECT_EQ(server.num_workers(), 3u);
  // Destructor joins idle workers; nothing to assert beyond not hanging.
}

TEST(RouteServerTest, WorkerCountClampedToAtLeastOne) {
  const graph::Graph g = MakeGrid(5);
  RouteServer::Options opt;
  opt.num_workers = 0;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());
  EXPECT_EQ(server.num_workers(), 1u);
  auto batch = server.ServeBatch(CornerQueries(5, 3));
  ASSERT_TRUE(batch.ok());
  for (const RouteResponse& resp : *batch) {
    EXPECT_TRUE(resp.status.ok());
    EXPECT_EQ(resp.worker_id, 0);
  }
}

graph::Graph WithEdgeCost(const graph::Graph& g, graph::NodeId u,
                          graph::NodeId v, double cost) {
  graph::Graph out;
  for (graph::NodeId n = 0; n < static_cast<graph::NodeId>(g.num_nodes());
       ++n) {
    const graph::Point& p = g.point(n);
    out.AddNode(p.x, p.y);
  }
  for (graph::NodeId n = 0; n < static_cast<graph::NodeId>(g.num_nodes());
       ++n) {
    for (const graph::Edge& e : g.Neighbors(n)) {
      EXPECT_TRUE(
          out.AddEdge(n, e.to, n == u && e.to == v ? cost : e.cost).ok());
    }
  }
  return out;
}

TEST(RouteServerCacheTest, RepeatBatchIsServedFromCacheBitIdentically) {
  const graph::Graph g = MakeGrid(10);
  RouteServer::Options opt;
  opt.num_workers = 4;
  opt.enable_cache = true;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());
  ASSERT_NE(server.cache(), nullptr);

  const std::vector<RouteQuery> queries = CornerQueries(10, 16);
  auto cold = server.ServeBatch(queries);
  ASSERT_TRUE(cold.ok());
  for (const RouteResponse& r : *cold) {
    ASSERT_TRUE(r.status.ok());
    EXPECT_FALSE(r.cache_hit);
  }

  auto warm = server.ServeBatch(queries);
  ASSERT_TRUE(warm.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    const RouteResponse& c = (*cold)[i];
    const RouteResponse& w = (*warm)[i];
    ASSERT_TRUE(w.status.ok());
    EXPECT_TRUE(w.cache_hit) << "query " << i;
    // Bit-identical, not merely close: the cache replays the result.
    EXPECT_EQ(w.result.found, c.result.found);
    EXPECT_EQ(w.result.cost, c.result.cost);
    EXPECT_EQ(w.result.path, c.result.path);
    EXPECT_EQ(w.io.blocks_read, 0u);  // no storage work on a hit
  }
  const RouteCache::Stats stats = server.cache()->stats();
  EXPECT_EQ(stats.hits, queries.size());
  EXPECT_EQ(stats.misses, queries.size());
}

TEST(RouteServerCacheTest, TrafficUpdateInvalidatesAndRecomputes) {
  const graph::Graph g = MakeGrid(6);
  // Edge on node 0's adjacency; congest it hard so routes through it move.
  const graph::Edge first = *g.Neighbors(0).begin();
  const double new_cost = first.cost + 50.0;

  RouteServer::Options opt;
  opt.num_workers = 2;
  opt.enable_cache = true;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());

  std::vector<RouteQuery> queries;
  for (graph::NodeId d = 20; d < 36; ++d) {
    RouteQuery q;
    q.source = 0;
    q.destination = d;
    queries.push_back(q);
  }
  auto before = server.ServeBatch(queries);
  ASSERT_TRUE(before.ok());
  auto cached = server.ServeBatch(queries);  // populate + confirm hits
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->front().cache_hit);

  ASSERT_TRUE(server.UpdateEdgeCost(0, first.to, new_cost).ok());
  EXPECT_FALSE(server.UpdateEdgeCost(0, first.to, -1.0).ok());

  // Reference: a fresh engine over the updated map.
  const graph::Graph updated = WithEdgeCost(g, 0, first.to, new_cost);
  storage::DiskManager disk;
  storage::BufferPool pool(&disk, 64);
  graph::RelationalGraphStore store(&pool);
  ASSERT_TRUE(store.Load(updated).ok());
  DbSearchEngine engine(&store, &pool, DbSearchOptions{});

  auto after = server.ServeBatch(queries);
  ASSERT_TRUE(after.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    const RouteResponse& resp = (*after)[i];
    ASSERT_TRUE(resp.status.ok()) << "query " << i;
    EXPECT_FALSE(resp.cache_hit) << "query " << i;  // nothing stale served
    auto want = engine.AStar(queries[i].source, queries[i].destination,
                             queries[i].version);
    ASSERT_TRUE(want.ok());
    EXPECT_NEAR(resp.result.cost, want->cost, 1e-9) << "query " << i;
    EXPECT_EQ(resp.result.path, want->path) << "query " << i;
  }
  EXPECT_GE(server.cache()->stats().stale_evictions, 1u);
}

TEST(RouteServerCacheTest, UncachedServerHasNoCache) {
  const graph::Graph g = MakeGrid(5);
  RouteServer server(g);
  ASSERT_TRUE(server.init_status().ok());
  EXPECT_EQ(server.cache(), nullptr);
  // Traffic updates still apply to the replicas without a cache.
  const graph::Edge first = *g.Neighbors(0).begin();
  EXPECT_TRUE(server.UpdateEdgeCost(0, first.to, first.cost + 1.0).ok());
}

TEST(RouteServerLandmarkTest, Version4MatchesVersion2AcrossThePool) {
  const graph::Graph g = MakeGrid(10);
  RouteServer::Options opt;
  opt.num_workers = 3;
  opt.num_landmarks = 6;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());
  ASSERT_TRUE(server.landmarks_enabled());

  std::vector<RouteQuery> v2 = CornerQueries(10, 18);
  std::vector<RouteQuery> v4 = v2;
  for (RouteQuery& q : v2) {
    q.algorithm = Algorithm::kAStar;
    q.version = AStarVersion::kV2;
  }
  for (RouteQuery& q : v4) {
    q.algorithm = Algorithm::kAStar;
    q.version = AStarVersion::kV4;
  }
  auto euclid = server.ServeBatch(v2);
  auto landmark = server.ServeBatch(v4);
  ASSERT_TRUE(euclid.ok() && landmark.ok());
  for (size_t i = 0; i < v2.size(); ++i) {
    ASSERT_TRUE((*euclid)[i].status.ok()) << "query " << i;
    ASSERT_TRUE((*landmark)[i].status.ok()) << "query " << i;
    EXPECT_EQ((*landmark)[i].result.found, (*euclid)[i].result.found);
    EXPECT_NEAR((*landmark)[i].result.cost, (*euclid)[i].result.cost, 1e-9)
        << "query " << i;
  }
}

TEST(RouteServerLandmarkTest, Version4WithoutLandmarksFailsPerQuery) {
  const graph::Graph g = MakeGrid(5);
  RouteServer server(g);  // num_landmarks == 0
  ASSERT_TRUE(server.init_status().ok());
  EXPECT_FALSE(server.landmarks_enabled());
  RouteQuery q;
  q.source = 0;
  q.destination = 24;
  q.algorithm = Algorithm::kAStar;
  q.version = AStarVersion::kV4;
  auto batch = server.ServeBatch({q});
  ASSERT_TRUE(batch.ok());
  EXPECT_FALSE(batch->front().status.ok());
}

TEST(RouteServerLayoutTest, HilbertMatchesPaperModeServer) {
  // A physical knob only: a Hilbert-clustered store under concurrent load
  // must answer every query exactly like the paper-mode server.
  const graph::Graph g = MakeGrid(12);
  const std::vector<RouteQuery> queries = CornerQueries(12, 24);

  RouteServer::Options paper;
  paper.num_workers = 4;
  RouteServer reference(g, paper);
  ASSERT_TRUE(reference.init_status().ok());
  auto expected = reference.ServeBatch(queries);
  ASSERT_TRUE(expected.ok());

  RouteServer::Options clustered;
  clustered.num_workers = 4;
  clustered.layout = graph::StoreLayout::kHilbert;
  RouteServer server(g, clustered);
  ASSERT_TRUE(server.init_status().ok());
  auto batch = server.ServeBatch(queries);
  ASSERT_TRUE(batch.ok());
  // Repeat the batch, so the second pass runs against a warm pool.
  auto repeat = server.ServeBatch(queries);
  ASSERT_TRUE(repeat.ok());

  for (size_t i = 0; i < queries.size(); ++i) {
    for (const auto* got : {&(*batch)[i], &(*repeat)[i]}) {
      ASSERT_TRUE(got->status.ok()) << "query " << i;
      EXPECT_EQ(got->result.found, (*expected)[i].result.found);
      EXPECT_EQ(got->result.cost, (*expected)[i].result.cost)
          << "query " << i;  // bit-identical, no epsilon
      EXPECT_EQ(got->result.path, (*expected)[i].result.path);
      EXPECT_EQ(got->result.stats.iterations,
                (*expected)[i].result.stats.iterations);
    }
  }
}

TEST(RouteServerOverlayTest, Version5MatchesDijkstraAcrossThePool) {
  const graph::Graph g = MakeGrid(10);
  RouteServer::Options opt;
  opt.num_workers = 4;
  opt.overlay_cell_order = 1;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());
  ASSERT_TRUE(server.overlay_enabled());
  ASSERT_NE(server.overlay_index(), nullptr);
  EXPECT_EQ(server.overlay_metric_version(), 1u);

  std::vector<RouteQuery> queries = CornerQueries(10, 20);
  for (RouteQuery& q : queries) {
    q.algorithm = Algorithm::kAStar;
    q.version = AStarVersion::kV5;
  }
  // Ground truth: in-memory Dijkstra over the float-rounded stored
  // metric (DB engines re-round per hop, so their claimed costs drift).
  const graph::Graph rounded = WithStoredEdgeCosts(g);
  auto batch = server.ServeBatch(queries);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    const RouteResponse& resp = (*batch)[i];
    ASSERT_TRUE(resp.status.ok()) << "query " << i;
    const PathResult want = DijkstraSearch(rounded, queries[i].source,
                                           queries[i].destination);
    ASSERT_EQ(resp.result.found, want.found) << "query " << i;
    EXPECT_NEAR(resp.result.cost, want.cost, 1e-9) << "query " << i;
  }
}

TEST(RouteServerOverlayTest, Version5WithoutOverlayFailsPerQuery) {
  const graph::Graph g = MakeGrid(5);
  RouteServer server(g);  // overlay_cell_order == 0
  ASSERT_TRUE(server.init_status().ok());
  EXPECT_FALSE(server.overlay_enabled());
  EXPECT_EQ(server.overlay_index(), nullptr);
  RouteQuery q;
  q.source = 0;
  q.destination = 24;
  q.algorithm = Algorithm::kAStar;
  q.version = AStarVersion::kV5;
  auto batch = server.ServeBatch({q});
  ASSERT_TRUE(batch.ok());
  EXPECT_FALSE(batch->front().status.ok());
}

TEST(RouteServerOverlayTest, CostIncreaseInvalidatesEveryCachedRoute) {
  const graph::Graph g = MakeGrid(10);
  RouteServer::Options opt;
  opt.num_workers = 2;
  opt.overlay_cell_order = 1;
  opt.enable_cache = true;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());
  const auto index = server.overlay_index();
  ASSERT_NE(index, nullptr);
  const OverlayTopology& topo = *index->topology;

  // A same-cell edge to congest, and a probe query in a different cell
  // whose path (the single node {w}) cannot touch the congested edge.
  graph::NodeId u = graph::kInvalidNode, v = graph::kInvalidNode;
  for (graph::NodeId n = 0; n < static_cast<graph::NodeId>(g.num_nodes());
       ++n) {
    for (const graph::Edge& e : g.Neighbors(n)) {
      if (topo.CellOf(n) == topo.CellOf(e.to)) {
        u = n;
        v = e.to;
        break;
      }
    }
    if (u != graph::kInvalidNode) break;
  }
  ASSERT_NE(u, graph::kInvalidNode);
  graph::NodeId w = graph::kInvalidNode;
  for (graph::NodeId n = 0; n < static_cast<graph::NodeId>(g.num_nodes());
       ++n) {
    if (topo.CellOf(n) != topo.CellOf(u)) {
      w = n;
      break;
    }
  }
  ASSERT_NE(w, graph::kInvalidNode);

  RouteQuery touched;
  touched.source = u;
  touched.destination = v;
  touched.algorithm = Algorithm::kAStar;
  touched.version = AStarVersion::kV5;
  RouteQuery untouched;
  untouched.source = w;
  untouched.destination = w;
  untouched.algorithm = Algorithm::kAStar;
  untouched.version = AStarVersion::kV5;
  const std::vector<RouteQuery> queries = {touched, untouched};

  ASSERT_TRUE(server.ServeBatch(queries).ok());  // warm the cache
  auto warm = server.ServeBatch(queries);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE((*warm)[0].cache_hit);
  EXPECT_TRUE((*warm)[1].cache_hit);

  // Even a pure cost increase bumps the epoch: every cached route, in the
  // touched cell or not, recomputes at the new version.
  const uint64_t epoch = server.cache()->epoch();
  const double base = *g.EdgeCost(u, v);
  ASSERT_TRUE(server.UpdateEdgeCost(u, v, base + 50.0).ok());
  EXPECT_EQ(server.overlay_metric_version(), 2u);  // re-customized
  EXPECT_EQ(server.cache()->epoch(), epoch + 1);

  auto after = server.ServeBatch(queries);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE((*after)[0].cache_hit);
  EXPECT_FALSE((*after)[1].cache_hit);
  const graph::Graph rounded =
      WithStoredEdgeCosts(WithEdgeCost(g, u, v, base + 50.0));
  const PathResult want = DijkstraSearch(rounded, u, v);
  EXPECT_NEAR((*after)[0].result.cost, want.cost, 1e-9);

  // The recomputed routes are cached again at the new epoch.
  auto rewarmed = server.ServeBatch(queries);
  ASSERT_TRUE(rewarmed.ok());
  EXPECT_TRUE((*rewarmed)[0].cache_hit);
  EXPECT_TRUE((*rewarmed)[1].cache_hit);

  // The serving-path status page reports the overlay and the epoch.
  const std::string statusz = server.StatuszJson();
  EXPECT_NE(statusz.find("\"overlay\""), std::string::npos);
  EXPECT_NE(statusz.find("\"epoch\":" + std::to_string(epoch + 1)),
            std::string::npos);
}

TEST(RouteServerOverlayTest, PublishedOverlayEqualsFullCustomization) {
  const graph::Graph g = MakeGrid(12);
  RouteServer::Options opt;
  opt.num_workers = 2;
  opt.overlay_cell_order = 2;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());

  // Mixed increases and decreases, same-cell and cross-cell, one batch at
  // a time: each re-customizes only the cells and tails it touches.
  Rng rng(7);
  for (int b = 0; b < 5; ++b) {
    std::vector<EdgeCostUpdate> batch;
    for (int i = 0; i < 6; ++i) {
      const auto u =
          static_cast<graph::NodeId>(rng.UniformInt(g.num_nodes()));
      const auto edges = g.Neighbors(u);
      const graph::Edge& e = edges[rng.UniformInt(edges.size())];
      batch.push_back({u, e.to, e.cost * rng.UniformDouble(0.5, 2.0)});
    }
    ASSERT_TRUE(server.ApplyUpdates(batch).ok());
  }

  const auto index = server.overlay_index();
  const auto snapshot = server.snapshot();
  ASSERT_NE(index, nullptr);
  ASSERT_NE(snapshot, nullptr);
  const OverlayCustomization& served = *index->customization;
  ASSERT_EQ(served.metric_version(), server.published_version());
  auto full = CustomizeOverlay(*index->topology, *snapshot,
                               served.metric_version());
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  const OverlayTopology& topo = *index->topology;
  for (int32_t c = 0; c < static_cast<int32_t>(topo.num_cells()); ++c) {
    EXPECT_EQ(served.cell(c).incell_dist, (*full)->cell(c).incell_dist)
        << "cell " << c;
    EXPECT_EQ(served.cell(c).incell_pred, (*full)->cell(c).incell_pred)
        << "cell " << c;
  }
  for (graph::NodeId n = 0; n < static_cast<graph::NodeId>(g.num_nodes());
       ++n) {
    const auto& got = served.cross_arcs(n);
    const auto& want = (*full)->cross_arcs(n);
    ASSERT_EQ(got.size(), want.size()) << "node " << n;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].to, want[i].to) << "node " << n;
      EXPECT_EQ(got[i].cost, want[i].cost) << "node " << n;
    }
  }
}

TEST(RouteServerOverlayTest, ConcurrentUpdatesAndServesStayExact) {
  // The TSan scenario: a traffic dispatcher applies cost increases (each
  // one re-customizes the touched cell and publishes a new version with
  // its overlay) while workers serve Version 5 batches. No
  // response may be an error, and once the updater is done the server
  // must agree exactly with a fresh reference over the final metric.
  const graph::Graph g = MakeGrid(8);
  RouteServer::Options opt;
  opt.num_workers = 4;
  opt.overlay_cell_order = 1;
  opt.enable_cache = true;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());

  const graph::Edge e0 = *g.Neighbors(5).begin();
  const graph::Edge e1 = *g.Neighbors(40).begin();
  constexpr int kUpdates = 6;
  std::thread updater([&] {
    for (int i = 1; i <= kUpdates; ++i) {
      // Monotonic increases; decreases would be exact too.
      ASSERT_TRUE(
          server.UpdateEdgeCost(5, e0.to, e0.cost + 3.0 * i).ok());
      ASSERT_TRUE(
          server.UpdateEdgeCost(40, e1.to, e1.cost + 2.0 * i).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<RouteQuery> queries = CornerQueries(8, 12);
  for (RouteQuery& q : queries) {
    q.algorithm = Algorithm::kAStar;
    q.version = AStarVersion::kV5;
  }
  for (int round = 0; round < 10; ++round) {
    auto batch = server.ServeBatch(queries);
    ASSERT_TRUE(batch.ok());
    for (const RouteResponse& resp : *batch) {
      ASSERT_TRUE(resp.status.ok());
      EXPECT_TRUE(resp.result.found);
    }
  }
  updater.join();

  // Parity on the settled metric — no stale overlay, cache entry, or
  // half-applied update may survive the race.
  const graph::Graph final_graph = WithEdgeCost(
      WithEdgeCost(g, 5, e0.to, e0.cost + 3.0 * kUpdates), 40, e1.to,
      e1.cost + 2.0 * kUpdates);
  const graph::Graph rounded = WithStoredEdgeCosts(final_graph);
  auto batch = server.ServeBatch(queries);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    const PathResult want = DijkstraSearch(rounded, queries[i].source,
                                           queries[i].destination);
    ASSERT_TRUE((*batch)[i].status.ok()) << "query " << i;
    EXPECT_NEAR((*batch)[i].result.cost, want.cost, 1e-9)
        << "query " << i;
  }
}

TEST(RouteServerTest, DiskLatencyModelIsInstalled) {
  const graph::Graph g = MakeGrid(5);
  RouteServer::Options opt;
  opt.num_workers = 1;
  opt.disk_latency.read_micros = 5;
  opt.disk_latency.write_micros = 7;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());
  EXPECT_EQ(server.disk().latency_model().read_micros, 5u);
  EXPECT_EQ(server.disk().latency_model().write_micros, 7u);
}

TEST(RouteServerIngestTest, BatchedUpdatePublishesOneVersionAtomically) {
  const graph::Graph g = MakeGrid(6);
  RouteServer::Options opt;
  opt.num_workers = 2;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());
  EXPECT_EQ(server.published_version(), 1u);

  // Three edges change as one batch: one publish, one version bump.
  const graph::Edge e0 = g.Neighbors(0)[0];
  const graph::Edge e7 = g.Neighbors(7)[0];
  const graph::Edge e20 = g.Neighbors(20)[0];
  const std::vector<EdgeCostUpdate> batch{
      {0, e0.to, e0.cost + 5.0},
      {7, e7.to, e7.cost + 6.0},
      {20, e20.to, e20.cost + 7.0},
  };
  ASSERT_TRUE(server.ApplyUpdates(batch).ok());
  EXPECT_EQ(server.published_version(), 2u);
  const RouteServer::IngestStats ing = server.ingest_stats();
  EXPECT_EQ(ing.update_batches, 1u);
  EXPECT_EQ(ing.updates_applied, 3u);

  // A serve after the publish pins the new version and sees all three
  // costs at once: bit-identical to a fresh server built from the
  // updated graph (same engines, same stored metric).
  const graph::Graph updated = WithEdgeCost(
      WithEdgeCost(WithEdgeCost(g, 0, e0.to, e0.cost + 5.0), 7, e7.to,
                   e7.cost + 6.0),
      20, e20.to, e20.cost + 7.0);
  RouteServer reference(updated, opt);
  ASSERT_TRUE(reference.init_status().ok());
  const std::vector<RouteQuery> q{RouteQuery{0, 35, Algorithm::kDijkstra}};
  auto resp = server.ServeBatch(q);
  auto want = reference.ServeBatch(q);
  ASSERT_TRUE(resp.ok());
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE((*resp)[0].status.ok());
  ASSERT_TRUE((*want)[0].status.ok());
  EXPECT_EQ((*resp)[0].metric_version, 2u);
  EXPECT_EQ((*resp)[0].result.cost, (*want)[0].result.cost);
  EXPECT_EQ((*resp)[0].result.path, (*want)[0].result.path);
}

TEST(RouteServerIngestTest, BatchedServingAfterUpdatesIsExact) {
  // Region batching keys every query by its source's region. The region
  // index outlives the version-1 snapshot it was built from (published
  // updates retire it), so batch formation after updates must not read
  // that snapshot — the sanitizer runs of this test catch it if it does.
  const graph::Graph g = MakeGrid(8);
  RouteServer::Options opt;
  opt.num_workers = 2;
  opt.max_batch = 8;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());

  graph::Graph updated = g;
  for (graph::NodeId u : {0, 9, 27, 40}) {
    const graph::Edge e = g.Neighbors(u)[0];
    const double cost = e.cost + 3.0;
    const std::vector<EdgeCostUpdate> batch{{u, e.to, cost}};
    ASSERT_TRUE(server.ApplyUpdates(batch).ok());
    updated = WithEdgeCost(updated, u, e.to, cost);
  }
  EXPECT_EQ(server.published_version(), 5u);

  RouteServer::Options ref_opt;
  ref_opt.num_workers = 1;
  RouteServer reference(updated, ref_opt);
  ASSERT_TRUE(reference.init_status().ok());
  const std::vector<RouteQuery> queries = CornerQueries(8, 24);
  auto got = server.ServeBatch(queries);
  auto want = reference.ServeBatch(queries);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE((*got)[i].status.ok()) << i;
    ASSERT_TRUE((*want)[i].status.ok()) << i;
    EXPECT_EQ((*got)[i].metric_version, 5u) << i;
    EXPECT_EQ((*got)[i].result.cost, (*want)[i].result.cost) << i;
    EXPECT_EQ((*got)[i].result.path, (*want)[i].result.path) << i;
  }
}

TEST(RouteServerIngestTest, InvalidBatchesRejectWithoutPublishing) {
  const graph::Graph g = MakeGrid(5);
  RouteServer::Options opt;
  opt.num_workers = 1;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());

  const graph::Edge e0 = g.Neighbors(0)[0];
  const std::vector<EdgeCostUpdate> negative{
      {0, e0.to, e0.cost + 1.0},
      {0, e0.to, -2.0},
  };
  EXPECT_TRUE(server.ApplyUpdates(negative).IsInvalidArgument());
  const std::vector<EdgeCostUpdate> unknown{{0, 24, 1.0}};  // no such edge
  EXPECT_TRUE(server.ApplyUpdates(unknown).IsNotFound());
  EXPECT_EQ(server.published_version(), 1u);
  EXPECT_EQ(server.ingest_stats().update_batches, 0u);
}

// The MVCC-lite contract under fire: readers never block on the writer
// and every response is exact for the metric version it reports. The
// writer publishes versions 2..N while readers serve; afterwards each
// response is checked bit-for-bit against a fresh reference server built
// from the graph recorded at that version.
TEST(RouteServerIngestTest, ConcurrentServesAreExactAtTheirPinnedVersion) {
  const graph::Graph g = MakeGrid(8);
  RouteServer::Options opt;
  opt.num_workers = 3;
  opt.enable_cache = true;  // the insert guard is part of the contract
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());

  constexpr uint64_t kVersions = 9;  // base (1) + eight published batches
  std::vector<graph::Graph> by_version;  // [v-1] = raw graph at version v
  by_version.push_back(g);

  const std::vector<RouteQuery> queries{
      RouteQuery{0, 63, Algorithm::kDijkstra},
      RouteQuery{5, 58, Algorithm::kAStar},
      RouteQuery{16, 47, Algorithm::kDijkstra},
  };

  struct Observed {
    uint64_t version;
    size_t query;
    double cost;
    bool found;
  };
  std::mutex observed_mu;
  std::vector<Observed> observed;

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    graph::Graph current = g;
    for (uint64_t v = 2; v <= kVersions; ++v) {
      // Two deterministic edge bumps per version.
      const auto u1 = static_cast<graph::NodeId>((v * 13) % 64);
      const auto u2 = static_cast<graph::NodeId>((v * 29 + 7) % 64);
      const graph::Edge& a = current.Neighbors(u1)[0];
      const graph::Edge& b = current.Neighbors(u2)[0];
      const std::vector<EdgeCostUpdate> batch{
          {u1, a.to, a.cost + 0.5},
          {u2, b.to, b.cost + 0.25},
      };
      ASSERT_TRUE(current.SetEdgeCost(u1, a.to, batch[0].cost).ok());
      ASSERT_TRUE(current.SetEdgeCost(u2, b.to, batch[1].cost).ok());
      ASSERT_TRUE(server.ApplyUpdates(batch).ok());
      ASSERT_EQ(server.published_version(), v);
      by_version.push_back(current);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    writer_done.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!writer_done.load()) {
        auto batch = server.ServeBatch(queries);
        ASSERT_TRUE(batch.ok());
        std::lock_guard<std::mutex> lock(observed_mu);
        for (const RouteResponse& resp : *batch) {
          ASSERT_TRUE(resp.status.ok());
          EXPECT_FALSE(resp.degraded);  // readers never fall back
          observed.push_back(Observed{resp.metric_version,
                                      static_cast<size_t>(resp.query_index),
                                      resp.result.cost, resp.result.found});
        }
      }
    });
  }
  writer.join();
  for (std::thread& r : readers) r.join();
  ASSERT_EQ(by_version.size(), kVersions);

  // Reference answers per version, from servers that never saw an update.
  std::vector<std::vector<double>> want_cost(kVersions);
  for (uint64_t v = 1; v <= kVersions; ++v) {
    RouteServer::Options ref_opt;
    ref_opt.num_workers = 1;
    RouteServer ref(by_version[v - 1], ref_opt);
    ASSERT_TRUE(ref.init_status().ok());
    auto batch = ref.ServeBatch(queries);
    ASSERT_TRUE(batch.ok());
    for (const RouteResponse& resp : *batch) {
      ASSERT_TRUE(resp.status.ok());
      want_cost[v - 1].push_back(resp.result.cost);
    }
  }
  ASSERT_FALSE(observed.empty());
  for (const Observed& o : observed) {
    ASSERT_GE(o.version, 1u);
    ASSERT_LE(o.version, kVersions);
    EXPECT_TRUE(o.found);
    EXPECT_EQ(o.cost, want_cost[o.version - 1][o.query])
        << "version " << o.version << " query " << o.query;
  }
}

TEST(RouteServerIngestTest, WalPersistsTheMetricAcrossRestart) {
  const graph::Graph g = MakeGrid(6);
  const std::string dir = ::testing::TempDir() + "route_server_wal_restart";
  std::filesystem::remove_all(dir);
  RouteServer::Options opt;
  opt.num_workers = 1;
  opt.wal.dir = dir;

  const std::vector<RouteQuery> q{RouteQuery{0, 35, Algorithm::kDijkstra}};
  double final_cost = 0.0;
  {
    RouteServer server(g, opt);
    ASSERT_TRUE(server.init_status().ok());
    for (int i = 1; i <= 3; ++i) {
      const graph::Edge e = g.Neighbors(0)[0];
      const std::vector<EdgeCostUpdate> batch{
          {0, e.to, e.cost + static_cast<double>(i)}};
      ASSERT_TRUE(server.ApplyUpdates(batch).ok());
    }
    const RouteServer::IngestStats ing = server.ingest_stats();
    EXPECT_TRUE(ing.wal_enabled);
    EXPECT_EQ(ing.appended_batches, 3u);
    EXPECT_EQ(ing.last_seq, 3u);
    auto batch = server.ServeBatch(q);
    ASSERT_TRUE(batch.ok());
    ASSERT_TRUE((*batch)[0].status.ok());
    final_cost = (*batch)[0].result.cost;
  }

  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());
  const RouteServer::IngestStats ing = server.ingest_stats();
  EXPECT_EQ(ing.recovered_batches, 3u);
  EXPECT_EQ(ing.last_seq, 3u);
  EXPECT_EQ(server.published_version(), 1u);  // versions are per-process
  auto batch = server.ServeBatch(q);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE((*batch)[0].status.ok());
  EXPECT_EQ((*batch)[0].result.cost, final_cost);
}

TEST(RouteServerIngestTest, CheckpointsRollTheLogAndKeepRecoveryExact) {
  const graph::Graph g = MakeGrid(6);
  const std::string dir = ::testing::TempDir() + "route_server_wal_ckpt";
  std::filesystem::remove_all(dir);
  RouteServer::Options opt;
  opt.num_workers = 1;
  opt.wal.dir = dir;
  opt.wal.checkpoint_every = 2;

  const std::vector<RouteQuery> q{RouteQuery{0, 35, Algorithm::kDijkstra}};
  double final_cost = 0.0;
  {
    RouteServer server(g, opt);
    ASSERT_TRUE(server.init_status().ok());
    for (int i = 1; i <= 5; ++i) {
      const graph::Edge e = g.Neighbors(7)[0];
      const std::vector<EdgeCostUpdate> batch{
          {7, e.to, e.cost + static_cast<double>(i)}};
      ASSERT_TRUE(server.ApplyUpdates(batch).ok());
    }
    EXPECT_EQ(server.ingest_stats().checkpoints, 2u);
    auto batch = server.ServeBatch(q);
    ASSERT_TRUE(batch.ok());
    final_cost = (*batch)[0].result.cost;
  }

  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());
  const RouteServer::IngestStats ing = server.ingest_stats();
  // Batches 1-4 are folded into the checkpoint; only seq 5 replays.
  EXPECT_EQ(ing.recovered_batches, 1u);
  EXPECT_EQ(ing.last_seq, 5u);
  auto batch = server.ServeBatch(q);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ((*batch)[0].result.cost, final_cost);
}


// ---------------------------------------------------------------------------
// Live traffic through ApplyUpdates. The server repairs each published
// metric by re-customizing the overlay and, after any decrease, by
// re-validating the landmarks, so Dijkstra and A* Versions 4 and 5 must
// answer the changed map exactly as a search from scratch.

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Options enabling Versions 4 and 5: 4 landmarks and an order-2
/// overlay.
RouteServer::Options LandmarkOverlayOptions() {
  RouteServer::Options opt;
  opt.num_workers = 2;
  opt.num_landmarks = 4;
  opt.overlay_cell_order = 2;
  return opt;
}

graph::Graph MakeUniformGrid(int k) {
  graph::GridGraphGenerator::Options opt;
  opt.k = k;
  opt.cost_model = graph::GridCostModel::kUniform;
  auto g = graph::GridGraphGenerator::Generate(opt);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

/// One source -> destination query per search the server keeps exact
/// under any metric: Dijkstra, Version 4 and Version 5. (Versions 1-3
/// estimate with geometric distance, which stops being a lower bound once
/// an update prices a street below its length.)
void AddExactVersions(graph::NodeId source, graph::NodeId destination,
                      std::vector<RouteQuery>* queries) {
  for (const auto& [algorithm, version] :
       {std::pair{Algorithm::kDijkstra, AStarVersion::kV3},
        std::pair{Algorithm::kAStar, AStarVersion::kV4},
        std::pair{Algorithm::kAStar, AStarVersion::kV5}}) {
    RouteQuery q;
    q.source = source;
    q.destination = destination;
    q.algorithm = algorithm;
    q.version = version;
    queries->push_back(q);
  }
}

std::vector<RouteQuery> ExactVersionsFrom(const graph::Graph& g,
                                          graph::NodeId source) {
  std::vector<RouteQuery> queries;
  for (graph::NodeId d = 0; d < static_cast<graph::NodeId>(g.num_nodes());
       ++d) {
    AddExactVersions(source, d, &queries);
  }
  return queries;
}

/// Serves `queries` and checks every answer against in-memory Dijkstra
/// over `current`'s stored (float-rounded) costs: the same found flag,
/// the optimal cost, and a path of existing streets between the
/// endpoints. The database engines carry path costs in f32 columns, so
/// costs compare to 1e-4 as in test_db_search.cc.
void ExpectServedExactly(RouteServer& server, const graph::Graph& current,
                         const std::vector<RouteQuery>& queries) {
  const graph::Graph rounded = WithStoredEdgeCosts(current);
  auto batch = server.ServeBatch(queries);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    const RouteQuery& q = queries[i];
    const RouteResponse& resp = (*batch)[i];
    SCOPED_TRACE(::testing::Message()
                 << AlgorithmName(q.algorithm) << " "
                 << AStarVersionName(q.version) << " " << q.source << "->"
                 << q.destination);
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    const PathResult want = DijkstraSearch(rounded, q.source, q.destination);
    ASSERT_EQ(resp.result.found, want.found);
    if (!want.found) continue;
    EXPECT_NEAR(resp.result.cost, want.cost, 1e-4);
    ASSERT_FALSE(resp.result.path.empty());
    EXPECT_EQ(resp.result.path.front(), q.source);
    EXPECT_EQ(resp.result.path.back(), q.destination);
    double resum = 0.0;
    for (size_t h = 0; h + 1 < resp.result.path.size(); ++h) {
      auto c = rounded.EdgeCost(resp.result.path[h], resp.result.path[h + 1]);
      ASSERT_TRUE(c.ok());
      resum += *c;
    }
    EXPECT_NEAR(resum, want.cost, 1e-4);
  }
}

TEST(RouteServerTrafficTest, DecreaseKeepsLandmarkAndOverlayVersionsExact) {
  // A near-free street in the middle of the grid pulls many routes onto
  // it; landmark bounds from before the decrease would overestimate.
  const graph::Graph g = MakeUniformGrid(8);
  RouteServer server(g, LandmarkOverlayOptions());
  ASSERT_TRUE(server.init_status().ok());
  ASSERT_TRUE(server.landmarks_enabled());
  ASSERT_TRUE(server.overlay_enabled());
  const graph::NodeId u = graph::GridGraphGenerator::NodeAt(8, 3, 3);
  const graph::NodeId v = graph::GridGraphGenerator::NodeAt(8, 3, 4);
  ASSERT_TRUE(server.UpdateEdgeCost(u, v, 0.01).ok());
  EXPECT_EQ(server.ingest_stats().landmark_revalidations, 1u);
  const graph::Graph current = WithEdgeCost(g, u, v, 0.01);
  ExpectServedExactly(server, current, ExactVersionsFrom(current, 0));
  ExpectServedExactly(server, current, ExactVersionsFrom(current, 63));
}

TEST(RouteServerTrafficTest, IncreaseOnTheSourceTreeNeedsNoRevalidation) {
  const graph::Graph g = MakeGrid(8);
  // Congest the first street of node 0's shortest-path tree: every route
  // below it in the tree has to move.
  auto tree = SingleSourceDijkstra(WithStoredEdgeCosts(g), 0);
  ASSERT_TRUE(tree.ok());
  graph::NodeId v = graph::kInvalidNode;
  for (graph::NodeId x = 1; x < 64 && v == graph::kInvalidNode; ++x) {
    if (tree->PathTo(x).size() == 2) v = x;
  }
  ASSERT_NE(v, graph::kInvalidNode);

  RouteServer server(g, LandmarkOverlayOptions());
  ASSERT_TRUE(server.init_status().ok());
  ASSERT_TRUE(server.UpdateEdgeCost(0, v, 40.0).ok());
  // A pure increase leaves every landmark bound admissible.
  EXPECT_EQ(server.ingest_stats().landmark_revalidations, 0u);
  const graph::Graph current = WithEdgeCost(g, 0, v, 40.0);
  ExpectServedExactly(server, current, ExactVersionsFrom(current, 0));
}

TEST(RouteServerTrafficTest, AnUpdateChangesOneDirectionOnly) {
  const graph::Graph g = MakeUniformGrid(6);
  RouteServer server(g, LandmarkOverlayOptions());
  ASSERT_TRUE(server.init_status().ok());
  ASSERT_TRUE(server.UpdateEdgeCost(0, 1, 30.0).ok());
  const graph::Graph current = WithEdgeCost(g, 0, 1, 30.0);
  std::vector<RouteQuery> queries;
  AddExactVersions(0, 1, &queries);
  AddExactVersions(1, 0, &queries);
  ExpectServedExactly(server, current, queries);

  auto batch = server.ServeBatch(queries);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    const PathResult& r = (*batch)[i].result;
    if (queries[i].source == 1) {
      // The reverse street keeps its cost.
      EXPECT_EQ(r.cost, 1.0) << i;
      EXPECT_EQ(r.path, (std::vector<graph::NodeId>{1, 0})) << i;
    } else {
      EXPECT_EQ(r.cost, 3.0) << i;  // around the congested street
      EXPECT_EQ(r.path.size(), 4u) << i;
    }
  }
}

TEST(RouteServerTrafficTest, RestoringTheBaseCostRestoresTheBaseAnswers) {
  const graph::Graph g = MakeGrid(8);
  RouteServer server(g, LandmarkOverlayOptions());
  ASSERT_TRUE(server.init_status().ok());
  const std::vector<RouteQuery> queries = ExactVersionsFrom(g, 0);
  auto base = server.ServeBatch(queries);
  ASSERT_TRUE(base.ok());

  // Congest the first street of the route to the far corner, then lift
  // the congestion again.
  const size_t far = 63 * 3;  // Dijkstra 0 -> 63
  ASSERT_EQ(queries[far].destination, 63);
  const std::vector<graph::NodeId>& route = (*base)[far].result.path;
  ASSERT_GE(route.size(), 2u);
  const graph::NodeId v = route[1];
  const double cost = *g.EdgeCost(0, v);
  ASSERT_TRUE(server.UpdateEdgeCost(0, v, cost + 25.0).ok());
  auto congested = server.ServeBatch(queries);
  ASSERT_TRUE(congested.ok());
  EXPECT_GT((*congested)[far].result.cost, (*base)[far].result.cost);

  ASSERT_TRUE(server.UpdateEdgeCost(0, v, cost).ok());
  EXPECT_EQ(server.published_version(), 3u);
  auto restored = server.ServeBatch(queries);
  ASSERT_TRUE(restored.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE((*restored)[i].status.ok()) << i;
    EXPECT_EQ((*restored)[i].metric_version, 3u) << i;
    EXPECT_EQ((*restored)[i].result.found, (*base)[i].result.found) << i;
    EXPECT_EQ((*restored)[i].result.cost, (*base)[i].result.cost) << i;
    EXPECT_EQ((*restored)[i].result.path, (*base)[i].result.path) << i;
  }
}

TEST(RouteServerTrafficTest, NonNumericAndNegativeInfiniteCostsAreRejected) {
  const graph::Graph g = MakeGrid(5);
  RouteServer::Options opt;
  opt.num_workers = 1;
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());
  const graph::Edge e0 = g.Neighbors(0)[0];
  for (const double cost : {std::nan(""), -kInfinity}) {
    EXPECT_TRUE(server.UpdateEdgeCost(0, e0.to, cost).IsInvalidArgument())
        << cost;
  }
  EXPECT_EQ(server.published_version(), 1u);
  EXPECT_EQ(server.ingest_stats().update_batches, 0u);
}

TEST(RouteServerTrafficTest, JammedRowDetoursInOneVersion) {
  // Congestion along the whole bottom row, both ways and in one batch,
  // pushes the row's end-to-end trip onto the next row.
  const graph::Graph g = MakeUniformGrid(5);
  RouteServer server(g, LandmarkOverlayOptions());
  ASSERT_TRUE(server.init_status().ok());
  std::vector<EdgeCostUpdate> jam;
  graph::Graph current = g;
  for (int col = 0; col + 1 < 5; ++col) {
    const graph::NodeId a = graph::GridGraphGenerator::NodeAt(5, 0, col);
    const graph::NodeId b = graph::GridGraphGenerator::NodeAt(5, 0, col + 1);
    jam.push_back({a, b, 10.0});
    jam.push_back({b, a, 10.0});
    current = WithEdgeCost(WithEdgeCost(current, a, b, 10.0), b, a, 10.0);
  }
  ASSERT_TRUE(server.ApplyUpdates(jam).ok());
  EXPECT_EQ(server.published_version(), 2u);

  const auto q = graph::GridGraphGenerator::HorizontalQuery(5);
  std::vector<RouteQuery> queries;
  AddExactVersions(q.source, q.destination, &queries);
  ExpectServedExactly(server, current, queries);
  auto batch = server.ServeBatch(queries);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    const PathResult& r = (*batch)[i].result;
    EXPECT_EQ((*batch)[i].metric_version, 2u) << i;
    EXPECT_GT(r.cost, 4.0) << i;  // the unjammed row costs 4
    EXPECT_TRUE(std::any_of(r.path.begin(), r.path.end(),
                            [](graph::NodeId n) { return n / 5 == 1; }))
        << i;
  }
}

TEST(RouteServerTrafficTest, ClosedStreetsDisconnectUntilReopened) {
  // An infinite cost closes a street. With both streets into the far
  // corner closed nothing reaches it, while its own exits stay open.
  const graph::Graph g = MakeUniformGrid(5);
  RouteServer server(g, LandmarkOverlayOptions());
  ASSERT_TRUE(server.init_status().ok());
  const graph::NodeId corner = 24;
  const std::vector<EdgeCostUpdate> close{{19, corner, kInfinity},
                                          {23, corner, kInfinity}};
  ASSERT_TRUE(server.ApplyUpdates(close).ok());
  graph::Graph current = WithEdgeCost(
      WithEdgeCost(g, 19, corner, kInfinity), 23, corner, kInfinity);
  std::vector<RouteQuery> to_corner;
  AddExactVersions(0, corner, &to_corner);
  auto closed = server.ServeBatch(to_corner);
  ASSERT_TRUE(closed.ok());
  for (const RouteResponse& resp : *closed) {
    ASSERT_TRUE(resp.status.ok());
    EXPECT_FALSE(resp.result.found);
  }
  ExpectServedExactly(server, current, ExactVersionsFrom(current, 0));
  ExpectServedExactly(server, current, ExactVersionsFrom(current, corner));

  // A decrease elsewhere re-validates the landmarks on a map where the
  // corner is unreachable.
  ASSERT_TRUE(server.UpdateEdgeCost(0, 1, 0.5).ok());
  EXPECT_EQ(server.ingest_stats().landmark_revalidations, 1u);
  current = WithEdgeCost(current, 0, 1, 0.5);
  ExpectServedExactly(server, current, ExactVersionsFrom(current, 0));
  ExpectServedExactly(server, current, ExactVersionsFrom(current, corner));

  const std::vector<EdgeCostUpdate> reopen{{19, corner, 1.0},
                                           {23, corner, 1.0}};
  ASSERT_TRUE(server.ApplyUpdates(reopen).ok());
  current = WithEdgeCost(WithEdgeCost(current, 19, corner, 1.0), 23, corner,
                         1.0);
  ExpectServedExactly(server, current, ExactVersionsFrom(current, 0));
}

/// Property: random update batches mixing decreases and increases keep
/// Dijkstra and Versions 4 and 5 exact, batch after batch.
class RouteServerTrafficProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(RouteServerTrafficProperty, RandomBatchesKeepServedAnswersExact) {
  graph::GridGraphGenerator::Options gopt;
  gopt.k = 8;
  gopt.cost_model = graph::GridCostModel::kVariance20;
  gopt.seed = GetParam();
  auto g = graph::GridGraphGenerator::Generate(gopt);
  ASSERT_TRUE(g.ok());
  RouteServer::Options opt = LandmarkOverlayOptions();
  opt.enable_cache = true;
  RouteServer server(*g, opt);
  ASSERT_TRUE(server.init_status().ok());

  graph::Graph current = *g;
  Rng rng(GetParam() * 131);
  for (int round = 0; round < 4; ++round) {
    std::vector<EdgeCostUpdate> batch;
    for (int i = 0; i < 3; ++i) {
      const auto u = static_cast<graph::NodeId>(
          rng.UniformInt(current.num_nodes()));
      const auto edges = current.Neighbors(u);
      ASSERT_FALSE(edges.empty());
      const graph::NodeId v = edges[rng.UniformInt(edges.size())].to;
      const double factor = rng.NextDouble() < 0.5
                                ? rng.UniformDouble(0.05, 0.9)   // decrease
                                : rng.UniformDouble(1.2, 20.0);  // increase
      const double cost = *current.EdgeCost(u, v) * factor;
      batch.push_back({u, v, cost});
      ASSERT_TRUE(current.SetEdgeCost(u, v, cost).ok());
    }
    ASSERT_TRUE(server.ApplyUpdates(batch).ok());
    const auto source =
        static_cast<graph::NodeId>(rng.UniformInt(current.num_nodes()));
    ExpectServedExactly(server, current, ExactVersionsFrom(current, source));
  }
  EXPECT_EQ(server.published_version(), 5u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteServerTrafficProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{7}));

/// `n` random updates on `g`'s streets, each cost times U[lo, hi].
std::vector<EdgeCostUpdate> RandomUpdates(const graph::Graph& g, Rng& rng,
                                          size_t n, double lo, double hi) {
  std::vector<EdgeCostUpdate> batch;
  for (size_t i = 0; i < n; ++i) {
    const auto u = static_cast<graph::NodeId>(rng.UniformInt(g.num_nodes()));
    const graph::Edge& e = g.Neighbors(u)[rng.UniformInt(g.OutDegree(u))];
    batch.push_back({u, e.to, e.cost * rng.UniformDouble(lo, hi)});
  }
  return batch;
}

/// Serves one query at a time until every worker has answered at the
/// published version, i.e. caught its replica up and unpinned it.
void ServeUntilEveryWorkerCaughtUp(RouteServer& server) {
  std::set<int> caught_up;
  for (int attempt = 0;
       attempt < 2000 && caught_up.size() < server.num_workers(); ++attempt) {
    auto batch = server.ServeBatch(CornerQueries(8, server.num_workers()));
    ASSERT_TRUE(batch.ok());
    for (const RouteResponse& resp : *batch) {
      if (resp.metric_version == server.published_version()) {
        caught_up.insert(resp.worker_id);
      }
    }
  }
  ASSERT_EQ(caught_up.size(), server.num_workers());
}

TEST(RouteServerTrafficTest, RetiredVersionsStayBounded) {
  const graph::Graph g = MakeGrid(8);
  RouteServer server(g, LandmarkOverlayOptions());
  ASSERT_TRUE(server.init_status().ok());
  const uint64_t bound = 2 * server.num_workers();
  Rng rng(3);

  // Idle: both replicas stay at version 1, which the writer keeps; every
  // later version is freed as soon as it is superseded.
  for (int i = 0; i < 200; ++i) {
    // The writer frees a version no worker uses when it supersedes it,
    // without waiting for a stats read.
    const std::weak_ptr<const graph::Graph> superseded = server.snapshot();
    ASSERT_TRUE(server.ApplyUpdates(RandomUpdates(g, rng, 2, 0.5, 2.0)).ok());
    EXPECT_EQ(superseded.expired(), i > 0) << i;  // version 1 stays
    ASSERT_LE(server.ingest_stats().retained_versions, bound) << i;
  }
  EXPECT_EQ(server.ingest_stats().retained_versions, 1u);
  ServeUntilEveryWorkerCaughtUp(server);
  EXPECT_EQ(server.ingest_stats().retained_versions, 0u);

  // Serving while the feed runs: replicas and pins spread over versions,
  // and the bound still holds.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      auto batch = server.ServeBatch(CornerQueries(8, 4));
      EXPECT_TRUE(batch.ok());
    }
  });
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(server.ApplyUpdates(RandomUpdates(g, rng, 2, 0.5, 2.0)).ok());
    EXPECT_LE(server.ingest_stats().retained_versions, bound) << i;
  }
  stop.store(true);
  reader.join();
  ServeUntilEveryWorkerCaughtUp(server);
  EXPECT_EQ(server.ingest_stats().retained_versions, 0u);
  EXPECT_NE(server.StatuszJson().find("\"retained_versions\":0"),
            std::string::npos);
}

TEST(RouteServerTrafficTest, UpdateStagesFitInTheCallAndLandmarksOnDecreases) {
  const std::string dir = ::testing::TempDir() + "route_server_wal_stages";
  std::filesystem::remove_all(dir);
  RouteServer::Options opt = LandmarkOverlayOptions();
  opt.wal.dir = dir;
  const graph::Graph g = MakeGrid(8);
  RouteServer server(g, opt);
  ASSERT_TRUE(server.init_status().ok());

  auto& reg = obs::MetricsRegistry::Default();
  const char* const stages[] = {"wal",     "apply",     "snapshot",
                                "overlay", "landmarks", "publish"};
  std::vector<obs::Histogram*> hist;
  for (const char* stage : stages) {
    hist.push_back(&reg.GetHistogram("atis_update_stage_seconds", "", {},
                                     {{"stage", stage}}));
  }
  Rng rng(9);
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    const bool decrease = round % 2 == 1;
    const std::shared_ptr<const graph::Graph> now = server.snapshot();
    const auto batch = decrease ? RandomUpdates(*now, rng, 4, 0.3, 0.9)
                                : RandomUpdates(*now, rng, 4, 1.2, 3.0);
    std::vector<uint64_t> counts;
    double stage_seconds = 0.0;
    for (const obs::Histogram* h : hist) {
      counts.push_back(h->count());
      stage_seconds -= h->sum();
    }
    const auto started = std::chrono::steady_clock::now();
    ASSERT_TRUE(server.ApplyUpdates(batch).ok());
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started)
                            .count();
    for (size_t i = 0; i < hist.size(); ++i) {
      stage_seconds += hist[i]->sum();
      const uint64_t want = stages[i] == std::string("landmarks")
                                ? (decrease ? 1u : 0u)
                                : 1u;
      EXPECT_EQ(hist[i]->count() - counts[i], want) << stages[i];
    }
    EXPECT_GT(stage_seconds, 0.0);
    EXPECT_LE(stage_seconds, wall);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace atis::core
