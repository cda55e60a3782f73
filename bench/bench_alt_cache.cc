// ALT (A* Version 4) + route-cache benchmark.
//
// Part 1 — estimator quality: A* versions 2 (Euclidean), 3 (Manhattan)
// and 4 (landmark/ALT) answer the same trips on the paper's grids
// (10/20/30, three cost models) and the Minneapolis-like road map.
// Version 4 must return exactly the Dijkstra-optimal cost on every
// workload (its bounds are admissible under any cost model), match
// Version 2 wherever Euclidean is admissible, and cut iterations and
// block I/O — the acceptance floor is a >= 20% iteration reduction with
// fewer blocks on at least one workload (a gate).
//
// Part 2 — serving-path cache: a 4-worker RouteServer answers the same
// batch uncached vs. with the epoch-invalidated route cache warm. Warm
// answers must be bit-identical and at least 2x the uncached QPS (a
// gate); a traffic update must drop every cached entry (zero hits on the
// next batch).
//
// Emits BENCH_alt_cache.json (override the path with a positional
// argument).
#include <chrono>
#include <cmath>
#include <cstdio>

#include "core/landmarks.h"
#include "core/route_server.h"
#include "graph/road_map_generator.h"
#include "harness.h"

namespace atis::bench {
namespace {

constexpr uint64_t kSeed = 1993;
constexpr size_t kNumLandmarks = 8;
// Cache throughput regime: same I/O-bound setup as bench_throughput.
constexpr size_t kCacheWorkers = 4;
constexpr size_t kFramesPerWorker = 32;
constexpr uint32_t kReadMicros = 175;
constexpr uint32_t kWriteMicros = 250;
constexpr size_t kQueriesPerBatch = 64;

struct TripResult {
  Trip trip;
  Cell v2, v3, v4;
  double optimal_cost = 0.0;  // database-resident Dijkstra
};

struct WorkloadResult {
  std::string name;
  size_t nodes = 0;
  std::vector<TripResult> trips;
  double preprocess_seconds = 0.0;   // landmark persist + load
  uint64_t preprocess_blocks = 0;    // metered I/O of the same
  // Totals over the workload's trips.
  uint64_t iters_v2 = 0, iters_v3 = 0, iters_v4 = 0;
  uint64_t blocks_v2 = 0, blocks_v3 = 0, blocks_v4 = 0;
  double iter_reduction_v4_vs_v2 = 0.0;
};

WorkloadResult RunWorkload(const Workload& w) {
  WorkloadResult out;
  out.name = w.name;
  out.nodes = w.graph.num_nodes();

  DbInstance db(w.graph);

  // Landmark preprocessing, metered: selection runs in memory (2k SSSP),
  // persistence + reload go through the storage layer.
  core::LandmarkOptions lm;
  lm.num_landmarks = kNumLandmarks;
  const core::LandmarkSet set = ValueOrDie(
      core::SelectLandmarks(core::WithStoredEdgeCosts(w.graph), lm));
  const storage::IoCounters io_before = db.disk().meter().counters();
  const auto pp_started = std::chrono::steady_clock::now();
  auto table = ValueOrDie(core::PersistAndLoadLandmarks(set, &db.store()));
  out.preprocess_seconds = SecondsSince(pp_started);
  const storage::IoCounters io_delta =
      db.disk().meter().counters() - io_before;
  out.preprocess_blocks = io_delta.blocks_read + io_delta.blocks_written;
  CheckOk(db.engine().EnableLandmarks(
      core::MakeLandmarkEstimator(std::move(table), w.euclidean_scale)));

  for (const Trip& trip : w.trips) {
    TripResult tr;
    tr.trip = trip;
    auto exact = db.engine().Dijkstra(trip.source, trip.destination);
    if (!exact.ok() || !(*exact).found) {
      Fatal(w.name + " trip " + trip.name + ": Dijkstra found no route");
    }
    tr.optimal_cost = exact->cost;
    for (const core::AStarVersion v :
         {core::AStarVersion::kV2, core::AStarVersion::kV3,
          core::AStarVersion::kV4}) {
      auto r = db.engine().AStar(trip.source, trip.destination, v);
      if (!r.ok() || !(*r).found) {
        Fatal(w.name + " trip " + trip.name + ": A* failed");
      }
      const Cell cell = ToCell(*r);
      if (v == core::AStarVersion::kV2) tr.v2 = cell;
      if (v == core::AStarVersion::kV3) tr.v3 = cell;
      if (v == core::AStarVersion::kV4) tr.v4 = cell;
    }
    // Version 4 is admissible on every cost model: exact cost, always.
    if (std::abs(tr.v4.path_cost - tr.optimal_cost) > 1e-9) {
      Fatal(w.name + " trip " + trip.name + ": v4 cost diverges from optimal");
    }
    // Where Euclidean is admissible too (the workloads that mix it into
    // ALT), v2 parity is required.
    if (w.euclidean_scale > 0.0 &&
        std::abs(tr.v4.path_cost - tr.v2.path_cost) > 1e-9) {
      Fatal(w.name + " trip " + trip.name + ": v4 cost diverges from v2");
    }
    out.iters_v2 += tr.v2.iterations;
    out.iters_v3 += tr.v3.iterations;
    out.iters_v4 += tr.v4.iterations;
    out.blocks_v2 += tr.v2.blocks;
    out.blocks_v3 += tr.v3.blocks;
    out.blocks_v4 += tr.v4.blocks;
    out.trips.push_back(tr);
  }
  out.iter_reduction_v4_vs_v2 =
      out.iters_v2 == 0
          ? 0.0
          : 1.0 - static_cast<double>(out.iters_v4) /
                      static_cast<double>(out.iters_v2);
  return out;
}

void PrintWorkload(const WorkloadResult& r) {
  std::printf("\n%s (%zu nodes; landmark preprocessing %.3fs, %llu blocks)\n",
              r.name.c_str(), r.nodes, r.preprocess_seconds,
              static_cast<unsigned long long>(r.preprocess_blocks));
  PrintRow("trip", {"v2 iters", "v3 iters", "v4 iters", "v2 blocks",
                    "v4 blocks", "cost"});
  for (const TripResult& t : r.trips) {
    char i2[32], i3[32], i4[32], b2[32], b4[32], c[32];
    std::snprintf(i2, sizeof(i2), "%llu",
                  static_cast<unsigned long long>(t.v2.iterations));
    std::snprintf(i3, sizeof(i3), "%llu",
                  static_cast<unsigned long long>(t.v3.iterations));
    std::snprintf(i4, sizeof(i4), "%llu",
                  static_cast<unsigned long long>(t.v4.iterations));
    std::snprintf(b2, sizeof(b2), "%llu",
                  static_cast<unsigned long long>(t.v2.blocks));
    std::snprintf(b4, sizeof(b4), "%llu",
                  static_cast<unsigned long long>(t.v4.blocks));
    std::snprintf(c, sizeof(c), "%.2f", t.v4.path_cost);
    PrintRow(t.trip.name, {i2, i3, i4, b2, b4, c});
  }
  std::printf("  totals: v4 vs v2 iterations %llu -> %llu (%.1f%% fewer), "
              "blocks %llu -> %llu\n",
              static_cast<unsigned long long>(r.iters_v2),
              static_cast<unsigned long long>(r.iters_v4),
              100.0 * r.iter_reduction_v4_vs_v2,
              static_cast<unsigned long long>(r.blocks_v2),
              static_cast<unsigned long long>(r.blocks_v4));
}

// -- Part 2: route cache on the serving path --------------------------------

struct CacheResult {
  double qps_uncached = 0.0;
  double qps_warm = 0.0;
  double speedup = 0.0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t stale_evictions = 0;
  uint64_t warm_batch_hits = 0;
  uint64_t post_update_hits = 0;  // must be 0: no stale route served
};

core::RouteServer::Options ServerOptions(bool enable_cache) {
  core::RouteServer::Options opt;
  opt.num_workers = kCacheWorkers;
  opt.pool_frames = kFramesPerWorker * kCacheWorkers;
  opt.disk_latency.read_micros = kReadMicros;
  opt.disk_latency.write_micros = kWriteMicros;
  opt.enable_cache = enable_cache;
  return opt;
}

CacheResult RunCacheBenchmark(const graph::Graph& g) {
  const std::vector<core::RouteQuery> queries =
      MakeQueries(g, kQueriesPerBatch, kSeed);
  CacheResult out;

  // Baseline: no cache, warm pools (one unmeasured batch first).
  const auto uncached = StartServer(g, ServerOptions(false));
  Serve(*uncached, queries);
  const ServedBatch reference = Serve(*uncached, queries);
  out.qps_uncached = reference.qps;

  // Cached server: first batch fills the cache, second is all hits.
  const auto cached = StartServer(g, ServerOptions(true));
  Serve(*cached, queries);
  const ServedBatch warm = Serve(*cached, queries);
  out.qps_warm = warm.qps;
  for (const core::RouteResponse& r : warm.responses) {
    if (r.cache_hit) ++out.warm_batch_hits;
  }
  // Bit-identical: the cache replays exactly what the engine computed.
  CheckSameRoutes(reference.responses, warm.responses, "warm cache");
  out.speedup = out.qps_warm / out.qps_uncached;

  // Traffic update: congest the first edge of the first query's source.
  const graph::NodeId u = queries.front().source;
  const graph::Edge e = *g.Neighbors(u).begin();
  CheckOk(cached->UpdateEdgeCost(u, e.to, e.cost * 3.0));
  const ServedBatch after = Serve(*cached, queries);
  for (const core::RouteResponse& r : after.responses) {
    if (r.cache_hit) ++out.post_update_hits;
  }

  const core::RouteCache::Stats stats = cached->cache()->stats();
  out.hits = stats.hits;
  out.misses = stats.misses;
  out.stale_evictions = stats.stale_evictions;
  return out;
}

// -- Emission ---------------------------------------------------------------

int EmitJson(const std::vector<WorkloadResult>& workloads,
             const CacheResult& cache, const std::vector<Gate>& gates,
             const std::string& path) {
  JsonWriter w;
  BeginBenchJson(w, "alt_cache");
  w.Field("seed", kSeed);
  w.Field("num_landmarks", kNumLandmarks);
  w.Key("alt").BeginArray();
  for (const WorkloadResult& r : workloads) {
    w.BeginObject();
    w.Field("workload", r.name);
    w.Field("nodes", r.nodes);
    w.Field("landmark_preprocess_seconds", r.preprocess_seconds);
    w.Field("landmark_preprocess_blocks", r.preprocess_blocks);
    w.Field("iterations_v2", r.iters_v2);
    w.Field("iterations_v3", r.iters_v3);
    w.Field("iterations_v4", r.iters_v4);
    w.Field("blocks_v2", r.blocks_v2);
    w.Field("blocks_v3", r.blocks_v3);
    w.Field("blocks_v4", r.blocks_v4);
    w.Field("iteration_reduction_v4_vs_v2", r.iter_reduction_v4_vs_v2);
    w.Key("trips").BeginArray();
    for (const TripResult& t : r.trips) {
      w.BeginObject();
      w.Field("trip", t.trip.name);
      w.Field("path_cost", t.v4.path_cost);
      w.Field("iterations_v2", t.v2.iterations);
      w.Field("iterations_v3", t.v3.iterations);
      w.Field("iterations_v4", t.v4.iterations);
      w.Field("blocks_v2", t.v2.blocks);
      w.Field("blocks_v4", t.v4.blocks);
      w.Field("cost_units_v2", t.v2.cost_units);
      w.Field("cost_units_v4", t.v4.cost_units);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.Key("cache").BeginObject();
  w.Field("workers", kCacheWorkers);
  w.Field("queries_per_batch", kQueriesPerBatch);
  w.Field("qps_uncached", cache.qps_uncached);
  w.Field("qps_warm_cached", cache.qps_warm);
  w.Field("speedup", cache.speedup);
  w.Field("warm_batch_hits", cache.warm_batch_hits);
  w.Field("post_traffic_update_hits", cache.post_update_hits);
  w.Field("hits_total", cache.hits);
  w.Field("misses_total", cache.misses);
  w.Field("stale_evictions_total", cache.stale_evictions);
  w.EndObject();
  return FinishBenchFile(w, path, gates);
}

int Run(const std::string& json_path) {
  PrintHeader("ALT estimator (A* Version 4) + route cache",
              "Versions 2/3/4 on the paper grids and the Minneapolis-like "
              "road map:\nidentical optimal costs, fewer iterations and "
              "blocks for the landmark\nestimator; then warm route-cache "
              "throughput vs. uncached serving at 4\nworkers, with "
              "epoch-invalidation on a traffic update.");

  const std::vector<Workload> workloads =
      PaperWorkloads(ValueOrDie(graph::GenerateMinneapolisLike()));

  std::vector<WorkloadResult> results;
  double best_reduction = 0.0;
  bool best_has_fewer_blocks = false;
  for (const Workload& w : workloads) {
    WorkloadResult r = RunWorkload(w);
    PrintWorkload(r);
    if (r.iter_reduction_v4_vs_v2 > best_reduction) {
      best_reduction = r.iter_reduction_v4_vs_v2;
      best_has_fewer_blocks = r.blocks_v4 < r.blocks_v2;
    }
    results.push_back(std::move(r));
  }
  std::printf("\nbest v4-vs-v2 iteration reduction: %.1f%% with %s blocks\n",
              100.0 * best_reduction,
              best_has_fewer_blocks ? "fewer" : "NOT fewer");

  const CacheResult cache =
      RunCacheBenchmark(MakeGrid(30, graph::GridCostModel::kUniform));
  std::printf("\nroute cache at %zu workers: uncached %.1f q/s, warm "
              "cached %.1f q/s (%.2fx)\n"
              "warm-batch hits %llu/%zu; hits after traffic update: %llu "
              "(must be 0)\n",
              kCacheWorkers, cache.qps_uncached, cache.qps_warm,
              cache.speedup,
              static_cast<unsigned long long>(cache.warm_batch_hits),
              kQueriesPerBatch,
              static_cast<unsigned long long>(cache.post_update_hits));
  if (cache.post_update_hits != 0) {
    Fatal("stale route served after a traffic update");
  }

  // Acceptance: on its best workload ALT settles >= 20% fewer
  // iterations than Version 2 and reads fewer blocks; the warm cache
  // serves >= 2x the uncached QPS.
  const std::vector<Gate> gates = {
      {"best_iteration_reduction_v4_vs_v2", best_reduction, Better::kHigher,
       0.20, /*relative=*/false},
      {"best_reduction_reads_fewer_blocks",
       best_has_fewer_blocks ? 1.0 : 0.0, Better::kHigher, 1.0,
       /*relative=*/false},
      {"cache_speedup_warm_over_uncached", cache.speedup, Better::kHigher,
       2.0, /*relative=*/false},
  };
  return EmitJson(results, cache, gates, json_path);
}

}  // namespace
}  // namespace atis::bench

int main(int argc, char** argv) {
  const std::string json_path =
      atis::bench::ParseBenchArgs(argc, argv, "alt_cache", {});
  return atis::bench::Run(json_path);
}
