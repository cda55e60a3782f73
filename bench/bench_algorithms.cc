// Wall-clock microbenchmarks (google-benchmark) of the in-memory
// algorithm implementations. The paper's metric is block I/O on a
// database-resident graph (see the per-table benches); this binary shows
// the same algorithmic shapes in CPU time on the plain adjacency-list
// substrate, at sizes well beyond the paper's. The last two measure the
// relational access paths under the paper engines in CPU time, on a store
// the buffer pool holds whole.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <queue>
#include <vector>

#include "core/advanced_search.h"
#include "core/landmarks.h"
#include "core/memory_search.h"
#include "core/sssp.h"
#include "graph/grid_generator.h"
#include "graph/relational_graph.h"
#include "graph/road_map_generator.h"
#include "relational/join.h"
#include "relational/operators.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "util/random.h"

namespace atis {
namespace {

using core::AStarSearch;
using core::DijkstraSearch;
using core::EstimatorKind;
using core::IterativeBfsSearch;
using core::MakeEstimator;
using graph::GridCostModel;
using graph::GridGraphGenerator;

const graph::Graph& GridFor(int k) {
  static std::map<int, graph::Graph>* cache = new std::map<int, graph::Graph>;
  auto it = cache->find(k);
  if (it == cache->end()) {
    auto g = GridGraphGenerator::Generate({k, GridCostModel::kVariance20});
    it = cache->emplace(k, std::move(g).value()).first;
  }
  return it->second;
}

void BM_Dijkstra_GridDiagonal(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const graph::Graph& g = GridFor(k);
  const auto q = GridGraphGenerator::DiagonalQuery(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DijkstraSearch(g, q.source, q.destination));
  }
  state.SetLabel(std::to_string(k * k) + " nodes");
}
BENCHMARK(BM_Dijkstra_GridDiagonal)->Arg(10)->Arg(20)->Arg(30)->Arg(60)->Arg(100);

void BM_AStarManhattan_GridDiagonal(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const graph::Graph& g = GridFor(k);
  const auto q = GridGraphGenerator::DiagonalQuery(k);
  const auto man = MakeEstimator(EstimatorKind::kManhattan);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AStarSearch(g, q.source, q.destination, *man));
  }
}
BENCHMARK(BM_AStarManhattan_GridDiagonal)->Arg(10)->Arg(20)->Arg(30)->Arg(60)->Arg(100);

void BM_AStarManhattan_GridHorizontal(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const graph::Graph& g = GridFor(k);
  const auto q = GridGraphGenerator::HorizontalQuery(k);
  const auto man = MakeEstimator(EstimatorKind::kManhattan);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AStarSearch(g, q.source, q.destination, *man));
  }
}
BENCHMARK(BM_AStarManhattan_GridHorizontal)->Arg(10)->Arg(30)->Arg(100);

void BM_Iterative_GridDiagonal(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const graph::Graph& g = GridFor(k);
  const auto q = GridGraphGenerator::DiagonalQuery(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        IterativeBfsSearch(g, q.source, q.destination));
  }
}
BENCHMARK(BM_Iterative_GridDiagonal)->Arg(10)->Arg(20)->Arg(30)->Arg(60)->Arg(100);

const graph::RoadMap& MinneapolisMap() {
  static const graph::RoadMap* rm = [] {
    auto r = graph::GenerateMinneapolisLike();
    return new graph::RoadMap(std::move(r).value());
  }();
  return *rm;
}

void BM_RoadMap_LongTrip(benchmark::State& state) {
  const graph::RoadMap& rm = MinneapolisMap();
  const auto eu = MakeEstimator(EstimatorKind::kEuclidean);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AStarSearch(rm.graph, rm.a, rm.b, *eu));
  }
}
BENCHMARK(BM_RoadMap_LongTrip);

void BM_RoadMap_ShortTrip(benchmark::State& state) {
  const graph::RoadMap& rm = MinneapolisMap();
  const auto eu = MakeEstimator(EstimatorKind::kEuclidean);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AStarSearch(rm.graph, rm.g, rm.d, *eu));
  }
}
BENCHMARK(BM_RoadMap_ShortTrip);

// The shortest-path kernel alone: one full SSSP tree over the road map,
// the 8-landmark selection (16 trees plus the seed tree) that RouteServer
// runs at setup, and the column repair it runs instead per decreasing
// update batch.
void BM_SingleSourceDijkstra_RoadMap(benchmark::State& state) {
  const graph::RoadMap& rm = MinneapolisMap();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SingleSourceDijkstra(rm.graph, rm.a));
  }
}
BENCHMARK(BM_SingleSourceDijkstra_RoadMap);

void BM_SelectLandmarks_RoadMap(benchmark::State& state) {
  const graph::RoadMap& rm = MinneapolisMap();
  core::LandmarkOptions options;
  options.num_landmarks = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SelectLandmarks(rm.graph, options));
  }
}
BENCHMARK(BM_SelectLandmarks_RoadMap);

// RepairLandmarks after one live-traffic batch (bench_ingest's: 8 edges,
// each a uniform node's uniform out-edge, cost x U[0.8, 1.2]) on the
// 8-landmark table: the write path's per-batch landmark stage.
void BM_RepairLandmarks_RoadMap(benchmark::State& state) {
  const graph::RoadMap& rm = MinneapolisMap();
  core::LandmarkOptions options;
  options.num_landmarks = 8;
  const core::LandmarkSet table =
      core::SelectLandmarks(rm.graph, options).value();
  graph::Graph g = rm.graph;
  graph::Graph reverse = graph::ReverseOf(g);
  std::vector<core::ChangedEdge> changed;
  Rng rng(19);
  while (changed.size() < 8) {
    const auto u = static_cast<graph::NodeId>(rng.UniformInt(g.num_nodes()));
    if (g.OutDegree(u) == 0) continue;
    const graph::Edge e = g.Neighbors(u)[rng.UniformInt(g.OutDegree(u))];
    if (std::ranges::any_of(changed, [&](const core::ChangedEdge& c) {
          return c.u == u && c.v == e.to;
        })) {
      continue;
    }
    const double cost = e.cost * rng.UniformDouble(0.8, 1.2);
    (void)g.SetEdgeCost(u, e.to, cost);
    (void)reverse.SetEdgeCost(e.to, u, cost);
    changed.push_back({u, e.to, e.cost});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::RepairLandmarks(table, g, reverse, changed));
  }
}
BENCHMARK(BM_RepairLandmarks_RoadMap);

void BM_BidirectionalDijkstra_GridDiagonal(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const graph::Graph& g = GridFor(k);
  const graph::Graph rev = graph::ReverseOf(g);
  const auto q = GridGraphGenerator::DiagonalQuery(k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::BidirectionalDijkstra(g, rev, q.source, q.destination));
  }
}
BENCHMARK(BM_BidirectionalDijkstra_GridDiagonal)->Arg(30)->Arg(100);

void BM_DuplicatePolicy_Dijkstra(benchmark::State& state) {
  const graph::Graph& g = GridFor(30);
  const auto q = GridGraphGenerator::DiagonalQuery(30);
  core::MemorySearchOptions opt;
  opt.duplicate_policy =
      static_cast<core::DuplicatePolicy>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DijkstraSearch(g, q.source, q.destination, opt));
  }
  state.SetLabel(std::string(
      core::DuplicatePolicyName(opt.duplicate_policy)));
}
BENCHMARK(BM_DuplicatePolicy_Dijkstra)->Arg(0)->Arg(1)->Arg(2);

/// The paper's 20x20 grid loaded as (S, R) into a pool that holds it.
struct Grid20Store {
  Grid20Store() : pool(&disk, 256), store(&pool) {
    (void)store.Load(GridFor(20));
  }
  storage::DiskManager disk;
  storage::BufferPool pool;
  graph::RelationalGraphStore store;
};

Grid20Store& StoreForGrid20() {
  static Grid20Store* s = new Grid20Store;
  return *s;
}

// The Iterative algorithm's step-6 join, C ⋈ S on begin_node, with C its
// 13-node frontier at hop 12 from the grid corner (the mean frontier of a
// 12-hop trip on this grid).
void BM_NestedLoopJoin_IterativeStep6(benchmark::State& state) {
  using graph::RelationalGraphStore;
  Grid20Store& g20 = StoreForGrid20();
  const graph::Graph& g = GridFor(20);
  std::vector<int> hops(g.num_nodes(), -1);
  std::queue<graph::NodeId> bfs;
  hops[0] = 0;
  bfs.push(0);
  while (!bfs.empty()) {
    const graph::NodeId u = bfs.front();
    bfs.pop();
    for (const graph::Edge& e : g.Neighbors(u)) {
      if (hops[e.to] < 0) {
        hops[e.to] = hops[u] + 1;
        bfs.push(e.to);
      }
    }
  }
  relational::Relation cur("C", RelationalGraphStore::NodeSchema(),
                           &g20.pool);
  std::vector<uint8_t> frontier;
  (void)relational::SelectScan(
      g20.store.node_relation(),
      [&](const relational::RowView& row) {
        return hops[static_cast<size_t>(row.Int(0))] == 12;
      },
      &frontier);
  const size_t row_size = cur.schema().tuple_size();
  for (size_t at = 0; at < frontier.size(); at += row_size) {
    (void)cur.InsertPacked({frontier.data() + at, row_size});
  }
  const relational::Relation& s = g20.store.edge_relation();
  for (auto _ : state) {
    auto join = relational::Join(
        cur, s,
        {RelationalGraphStore::kNodeIdField, RelationalGraphStore::kBeginField},
        relational::JoinStrategy::kNestedLoop, {}, "JOIN");
    benchmark::DoNotOptimize(join.value()->num_tuples());
    (void)join.value()->Clear(/*charge=*/true);
  }
  state.SetLabel(std::to_string(cur.num_tuples()) + " x " +
                 std::to_string(s.num_tuples()) + " tuples");
}
BENCHMARK(BM_NestedLoopJoin_IterativeStep6);

// Point lookups of every node id through R's ISAM index (GetNode's path).
void BM_IsamLookupAll_R(benchmark::State& state) {
  const relational::Relation& r = StoreForGrid20().store.node_relation();
  const index::IsamIndex& isam = *r.isam_index();
  const auto n = static_cast<int64_t>(r.num_tuples());
  for (auto _ : state) {
    for (int64_t id = 0; id < n; ++id) {
      benchmark::DoNotOptimize(isam.LookupAll(id));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IsamLookupAll_R);

// GetNode of every node id: the ISAM descent plus the row read on its page,
// the probe the paper engines make per relaxed edge.
void BM_GetNode_R(benchmark::State& state) {
  const graph::RelationalGraphStore& store = StoreForGrid20().store;
  const auto n = static_cast<graph::NodeId>(store.num_nodes());
  for (auto _ : state) {
    for (graph::NodeId id = 0; id < n; ++id) {
      benchmark::DoNotOptimize(store.GetNode(id));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GetNode_R);

// Fills one heap-file page with 25-byte rows (the Iterative join's row: an
// R row's 13 packed bytes and an S row's 12), 140 of them with their 4-byte
// slots, then drops the file: a join-result page's insert cost.
void BM_HeapFileInsert_FillPage(benchmark::State& state) {
  storage::DiskManager disk;
  storage::BufferPool pool(&disk, 8);
  storage::HeapFile file(&pool);
  const std::vector<uint8_t> row(25, 0x5a);
  size_t rows = 0;
  for (auto _ : state) {
    rows = 0;
    while (file.num_pages() < 2) {
      benchmark::DoNotOptimize(file.Insert(row));
      ++rows;
    }
    (void)file.Clear();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
  state.SetLabel(std::to_string(rows - 1) + " rows per page");
}
BENCHMARK(BM_HeapFileInsert_FillPage);

}  // namespace
}  // namespace atis

BENCHMARK_MAIN();
